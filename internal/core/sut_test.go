package core

import (
	"testing"

	"crayfish/internal/model"
	"crayfish/internal/netsim"
	"crayfish/internal/serving"
	"crayfish/internal/sps"
)

// countingScorer counts Score calls.
type countingScorer struct {
	serving.Scorer
	calls int
}

func (c *countingScorer) Score(inputs []float32, n int) ([]float32, error) {
	c.calls++
	return c.Scorer.Score(inputs, n)
}

// TestRepeatedSampleCostsAFullScore: the producer's pool repeats
// samples, and a repeated one is scored like a new one — one Score call
// per event and the same allocations — so no cache in the operator or
// the scorer can appear without this failing.
func TestRepeatedSampleCostsAFullScore(t *testing.T) {
	inner, cleanup, err := BuildScorerNet(ServingConfig{Mode: Embedded, Tool: "onnx"}, model.NewFFNN(1), 1, netsim.Loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	scorer := &countingScorer{Scorer: inner}
	transform := MakeTransform(JSONCodec{}, scorer)

	w := Workload{InputShape: []int{28, 28}, Seed: 1}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	pool := newSamplePool(w, nil, JSONCodec{})
	var recs [][]byte
	for id := int64(0); !pool.full || id < 2*int64(len(pool.slots)); id++ {
		rec, _, err := pool.record(id)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	for _, rec := range recs {
		if _, err := transform(rec); err != nil {
			t.Fatal(err)
		}
	}
	if scorer.calls != len(recs) {
		t.Fatalf("%d events, every sample twice, made %d Score calls", len(recs), scorer.calls)
	}
	if raceEnabled {
		return // -race makes sync.Pool drop buffers and adds allocations
	}
	fresh := recs[:len(pool.slots)]
	i := 0
	freshAllocs := testing.AllocsPerRun(100, func() {
		_, _ = transform(fresh[i%len(fresh)])
		i++
	})
	repeatedAllocs := testing.AllocsPerRun(100, func() { _, _ = transform(recs[0]) })
	if freshAllocs != repeatedAllocs {
		t.Fatalf("a repeated sample allocates %v times, a fresh one %v", repeatedAllocs, freshAllocs)
	}
}

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
