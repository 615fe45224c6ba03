package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func sampleBatch() *DataBatch {
	return &DataBatch{
		ID:           42,
		CreatedNanos: time.Now().UnixNano(),
		Count:        2,
		Inputs:       []float32{1, 2, 3, 4},
		Predictions:  []float32{0.25, 0.75},
	}
}

func TestCodecsRoundTrip(t *testing.T) {
	for _, codec := range []BatchCodec{JSONCodec{}, BinaryCodec{}} {
		b := sampleBatch()
		data, err := codec.Marshal(b)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		got, err := codec.Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if got.ID != b.ID || got.CreatedNanos != b.CreatedNanos || got.Count != b.Count {
			t.Fatalf("%s: header mismatch %+v", codec.Name(), got)
		}
		for i := range b.Inputs {
			if got.Inputs[i] != b.Inputs[i] {
				t.Fatalf("%s: input %d mismatch", codec.Name(), i)
			}
		}
		for i := range b.Predictions {
			if got.Predictions[i] != b.Predictions[i] {
				t.Fatalf("%s: prediction %d mismatch", codec.Name(), i)
			}
		}
	}
}

func TestBinaryCodecRoundTripProperty(t *testing.T) {
	codec := BinaryCodec{}
	f := func(id int64, created int64, inputs []float32, nPred uint8) bool {
		b := &DataBatch{ID: id, CreatedNanos: created, Count: 1, Inputs: inputs}
		for i := 0; i < int(nPred)%5; i++ {
			b.Predictions = append(b.Predictions, float32(i))
		}
		data, err := codec.Marshal(b)
		if err != nil {
			return false
		}
		got, err := codec.Unmarshal(data)
		if err != nil {
			return false
		}
		if got.ID != b.ID || got.CreatedNanos != b.CreatedNanos || len(got.Inputs) != len(b.Inputs) || len(got.Predictions) != len(b.Predictions) {
			return false
		}
		for i := range b.Inputs {
			// NaN != NaN; compare through bit identity by formatting.
			if got.Inputs[i] != b.Inputs[i] && b.Inputs[i] == b.Inputs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	if _, err := UnmarshalJSONBatch([]byte("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := UnmarshalJSONBatch([]byte(`{"id":1,"count":0}`)); err == nil {
		t.Fatal("zero count accepted")
	}
	bc := BinaryCodec{}
	if _, err := bc.Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("short binary accepted")
	}
	good, err := bc.Marshal(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Unmarshal(good[:len(good)-1]); err == nil {
		t.Fatal("truncated binary accepted")
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	b := sampleBatch()
	b.Inputs = make([]float32, 784)
	for i := range b.Inputs {
		b.Inputs[i] = float32(i) * 0.001
	}
	jd, err := (JSONCodec{}).Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := (BinaryCodec{}).Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(bd) >= len(jd) {
		t.Fatalf("binary (%d) not smaller than JSON (%d)", len(bd), len(jd))
	}
}

// The tests below hold the specialised JSON codec to encoding/json, the
// oracle: identical bytes out, identical accept/reject set and values in.

// oracleUnmarshalJSON is UnmarshalJSONBatch with encoding/json alone.
func oracleUnmarshalJSON(data []byte) (*DataBatch, error) {
	var b DataBatch
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("core: batch decode: %w", err)
	}
	if b.Count <= 0 {
		return nil, fmt.Errorf("core: batch %d has non-positive count %d", b.ID, b.Count)
	}
	return &b, nil
}

// sameBatch is reflect.DeepEqual (nil and empty slices differ) that also
// tells -0 from 0.
func sameBatch(a, b *DataBatch) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for i := range a.Inputs {
		if math.Float32bits(a.Inputs[i]) != math.Float32bits(b.Inputs[i]) {
			return false
		}
	}
	for i := range a.Predictions {
		if math.Float32bits(a.Predictions[i]) != math.Float32bits(b.Predictions[i]) {
			return false
		}
	}
	return true
}

// checkAgainstOracle marshals b both ways and decodes the bytes both ways.
func checkAgainstOracle(t *testing.T, b *DataBatch) {
	t.Helper()
	want, wantErr := json.Marshal(b)
	got, gotErr := MarshalJSONBatch(b)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("marshal error %v, encoding/json %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("marshal differs from encoding/json at byte %d: %.40q vs %.40q", i, got[i:], want[i:])
	}
	if wantErr != nil {
		return
	}
	checkDecodeAgainstOracle(t, got)
}

// checkDecodeAgainstOracle decodes data both ways: same verdict, same
// error text, same batch.
func checkDecodeAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := oracleUnmarshalJSON(data)
	got, gotErr := UnmarshalJSONBatch(data)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("unmarshal %.80q: error %v, encoding/json %v", data, gotErr, wantErr)
	}
	if wantErr == nil && !sameBatch(got, want) {
		t.Fatalf("unmarshal %.80q: %+v, encoding/json %+v", data, got, want)
	}
}

func TestJSONCodecMatchesEncodingJSONFloats(t *testing.T) {
	// Every 4099th float32 bit pattern (4099 is prime, so every exponent
	// and mantissa alignment is visited), 4096 to a batch.
	var vals []float32
	flush := func() {
		checkAgainstOracle(t, &DataBatch{ID: 1, CreatedNanos: 2, Count: 1, Inputs: vals, Predictions: vals[:len(vals)/2]})
		vals = vals[:0]
	}
	add := func(bits uint32) {
		if bits&0x7f800000 == 0x7f800000 {
			return // NaN and ±Inf: TestJSONCodecRejectsNonFinite
		}
		if vals = append(vals, math.Float32frombits(bits)); len(vals) == 4096 {
			flush()
		}
	}
	for bits := uint64(0); bits < 1<<32; bits += 4099 {
		add(uint32(bits))
	}
	// Both ends of every binade (exponent 0 is ±0 and the subnormals),
	// and the neighbours of the 'f'/'e' format switches at 1e-6 and 1e21.
	for _, sign := range []uint32{0, 1 << 31} {
		for exp := uint32(0); exp < 255; exp++ {
			for _, mant := range []uint32{0, 1, 2, 1 << 22, 1<<23 - 2, 1<<23 - 1} {
				add(sign | exp<<23 | mant)
			}
		}
		for _, edge := range []float32{1e-6, 1e21, 1e-5, 1e-7, 1e20, 1e22} {
			for d := uint32(0); d <= 4; d++ {
				add(sign | (math.Float32bits(edge) - 2 + d))
			}
		}
	}
	flush()
}

func TestJSONCodecMatchesEncodingJSONShapes(t *testing.T) {
	shapes := [][]float32{nil, {}, {0.5}, {1, -2.25, 3e-9, 4e30}}
	for _, in := range shapes {
		for _, pred := range shapes {
			for _, count := range []int{1, 0, -3, math.MaxInt64} {
				checkAgainstOracle(t, &DataBatch{ID: math.MinInt64, CreatedNanos: math.MaxInt64, Count: count, Inputs: in, Predictions: pred})
			}
		}
	}
}

func TestJSONCodecRejectsNonFinite(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, bad := range []float32{nan, inf, -inf} {
		checkAgainstOracle(t, &DataBatch{Count: 1, Inputs: []float32{1, bad}})
		checkAgainstOracle(t, &DataBatch{Count: 1, Inputs: []float32{1}, Predictions: []float32{bad, 2}})
	}
}

// ffnnRecord is a scored FFNN event as the output topic carries it: 784
// inputs drawn like the synthetic producer's, ten predictions.
func ffnnRecord() *DataBatch {
	b := newDataGenerator(Workload{InputShape: []int{28, 28}, BatchSize: 1, Seed: 1}).next(7)
	b.Predictions = make([]float32, 10)
	for i := range b.Predictions {
		b.Predictions[i] = 1 / float32(i+3)
	}
	return b
}

func TestJSONCodecCanonicalFastPath(t *testing.T) {
	b := ffnnRecord()
	data, err := MarshalJSONBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	// What the encoder writes, the decoder reads without the oracle.
	for _, rec := range []*DataBatch{b, {Count: 1, Inputs: []float32{}}, {ID: -1, Count: 2, Inputs: []float32{-0.0, 1e-7}}} {
		enc, err := MarshalJSONBatch(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !decodeCanonicalJSON(enc, new(DataBatch)) {
			t.Fatalf("own output %.60q took the fallback", enc)
		}
	}
	if raceEnabled {
		return // -race makes sync.Pool drop buffers and adds allocations
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = MarshalJSONBatch(b) }); n != 1 {
		t.Fatalf("Marshal allocates %v times per record, want 1", n)
	}
	// The batch and its two slices.
	if n := testing.AllocsPerRun(100, func() { _, _ = UnmarshalJSONBatch(data) }); n > 3 {
		t.Fatalf("canonical Unmarshal allocates %v times per record, want <= 3", n)
	}
}

// FuzzJSONBatchDecode: on arbitrary bytes the decoder and encoding/json
// agree on the verdict, the error text and the decoded batch. The seed
// corpus is testdata/fuzz/FuzzJSONBatchDecode.
func FuzzJSONBatchDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAgainstOracle(t, data)
	})
}

func BenchmarkJSONCodecMarshal(b *testing.B) {
	rec := ffnnRecord()
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBytes, _ = MarshalJSONBatch(rec)
		}
	})
	b.Run("encodingjson", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBytes, _ = json.Marshal(rec)
		}
	})
}

func BenchmarkJSONCodecUnmarshal(b *testing.B) {
	data, err := MarshalJSONBatch(ffnnRecord())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBatch, _ = UnmarshalJSONBatch(data)
		}
	})
	b.Run("encodingjson", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBatch, _ = oracleUnmarshalJSON(data)
		}
	})
}

var (
	benchBytes []byte
	benchBatch *DataBatch
)
