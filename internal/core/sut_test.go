package core

import (
	"testing"

	"crayfish/internal/model"
	"crayfish/internal/netsim"
	"crayfish/internal/sps"
)

// TestTransformKeepsInputs: serving.Scorer may use the inputs it is lent
// as scratch, and a model whose first layer runs in place does. The
// scored record must carry the input record's inputs bit for bit all the
// same, whichever route its bytes take through the codec.
func TestTransformKeepsInputs(t *testing.T) {
	m := model.NewFFNNSized(1, 8, []int{4}, 3)
	m.Layers = append([]*model.Layer{{Kind: model.KindReLU, Name: "relu-in"}}, m.Layers...)
	scorer, cleanup, err := BuildScorerNet(ServingConfig{Mode: Embedded, Tool: "onnx"}, m, 1, netsim.Loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	in := &DataBatch{ID: 3, CreatedNanos: 5, Count: 1, Inputs: []float32{-1, 2, -3, 4, -5, 6, -7, 8}}
	binRec, err := BinaryCodec{}.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	records := []struct {
		name  string
		codec BatchCodec
		value []byte
	}{
		{"canonical JSON", JSONCodec{}, []byte(`{"id":3,"created_ns":5,"count":1,"inputs":[-1,2,-3,4,-5,6,-7,8]}`)},
		{"JSON with whitespace", JSONCodec{}, []byte(`{"id": 3, "created_ns": 5, "count": 1, "inputs": [-1, 2, -3, 4, -5, 6, -7, 8]}`)},
		{"binary", BinaryCodec{}, binRec},
	}
	for _, rec := range records {
		single := MakeTransform(rec.codec, scorer)
		batched := MakeBatchTransform(rec.codec, scorer)
		transforms := []struct {
			name string
			run  sps.Transform
		}{
			{"MakeTransform", single},
			{"MakeBatchTransform", func(v []byte) ([]byte, error) {
				outs, err := batched([][]byte{v})
				if err != nil {
					return nil, err
				}
				return outs[0], nil
			}},
		}
		for _, tf := range transforms {
			t.Run(rec.name+"/"+tf.name, func(t *testing.T) {
				scored, err := tf.run(rec.value)
				if err != nil {
					t.Fatal(err)
				}
				out, err := rec.codec.Unmarshal(scored)
				if err != nil {
					t.Fatal(err)
				}
				if len(out.Predictions) != 3 {
					t.Fatalf("scored record has %d predictions, want 3", len(out.Predictions))
				}
				if !sameFloats(out.Inputs, in.Inputs) {
					t.Fatalf("scored record's inputs %v, the input record's %v", out.Inputs, in.Inputs)
				}
			})
		}
	}
}
