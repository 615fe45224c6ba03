package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
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

// sameBatch compares the exported fields — what a batch is; the bytes a
// decoder retained are not — telling nil from empty slices and -0 from 0.
func sameBatch(a, b *DataBatch) bool {
	return a.ID == b.ID && a.CreatedNanos == b.CreatedNanos && a.Count == b.Count &&
		sameFloats(a.Inputs, b.Inputs) && sameFloats(a.Predictions, b.Predictions)
}

func sameFloats(a, b []float32) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
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
	if b.Count <= 0 {
		return
	}
	// The operator's round: what was decoded from these bytes, scored,
	// goes out as json.Marshal would write it.
	dec, err := UnmarshalJSONBatch(got)
	if err != nil {
		t.Fatal(err)
	}
	scored := *b
	scored.Predictions = []float32{0.25, -3e-9}
	dec.Predictions = scored.Predictions
	want, _ = json.Marshal(&scored)
	if got, err = MarshalJSONBatch(dec); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-marshal of a decoded batch differs from encoding/json (err %v): %.60q vs %.60q", err, got, want)
	}
}

// checkDecodeAgainstOracle decodes data both ways: same verdict, same
// error text, same batch. stamp, which converts no float, agrees with
// the full decode on all three, and what was decoded re-encodes to
// bytes that decode to the same batch.
func checkDecodeAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := oracleUnmarshalJSON(data)
	got, gotErr := UnmarshalJSONBatch(data)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("unmarshal %.80q: error %v, encoding/json %v", data, gotErr, wantErr)
	}
	id, created, stampErr := stamp(JSONCodec{}, data)
	if (wantErr == nil) != (stampErr == nil) || wantErr != nil && wantErr.Error() != stampErr.Error() {
		t.Fatalf("stamp %.80q: error %v, encoding/json %v", data, stampErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !sameBatch(got, want) {
		t.Fatalf("unmarshal %.80q: %+v, encoding/json %+v", data, got, want)
	}
	if id != want.ID || created != want.CreatedNanos {
		t.Fatalf("stamp %.80q: id %d created_ns %d, encoding/json %d %d", data, id, created, want.ID, want.CreatedNanos)
	}
	enc, err := MarshalJSONBatch(got)
	if err != nil {
		t.Fatalf("re-marshal of %.80q: %v", data, err)
	}
	if len(want.Predictions) == 0 {
		want.Predictions = nil // omitempty: an empty array is not written back
	}
	if again, err := oracleUnmarshalJSON(enc); err != nil || !sameBatch(again, want) {
		t.Fatalf("unmarshal %.80q re-encodes to %.80q, which decodes to %+v (err %v)", data, enc, again, err)
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
	// The operator's encode: the retained inputs are copied, not formatted.
	for _, codec := range []BatchCodec{JSONCodec{}, BinaryCodec{}} {
		rec, err := codec.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := codec.Unmarshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if dec.wire.span == nil {
			t.Fatalf("%s: decoded batch retains no inputs", codec.Name())
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = codec.Marshal(dec) }); n != 1 {
			t.Fatalf("%s: re-marshal of a decoded batch allocates %v times, want 1", codec.Name(), n)
		}
	}
}

// TestReencodeDecodedBatch: a decoded batch carries the bytes its inputs
// were decoded from, and the encoder may copy them only while they are
// still what the batch says.
func TestReencodeDecodedBatch(t *testing.T) {
	const rec = `{"id":7,"created_ns":9,"count":2,"inputs":[1,-2.5,3e-9,0]}`
	cases := []struct {
		name string
		rec  string
		edit func(b *DataBatch)
		want string // empty: what json.Marshal writes for the edited batch
	}{
		{"untouched", rec, func(*DataBatch) {}, ""},
		{"scored", rec, func(b *DataBatch) { b.Predictions = []float32{0.25, 0.75} }, ""},
		{"header edited", rec, func(b *DataBatch) { b.ID, b.CreatedNanos, b.Count = -1, 1<<62, 4 }, ""},
		{"inputs replaced", rec, func(b *DataBatch) { b.Inputs = []float32{5, 6, 7, 8} }, ""},
		{"inputs replaced by a shorter view", rec, func(b *DataBatch) { b.Inputs = b.Inputs[:2] }, ""},
		{"inputs replaced by a later view", rec, func(b *DataBatch) { b.Inputs = b.Inputs[1:] }, ""},
		{"inputs set nil", rec, func(b *DataBatch) { b.Inputs = nil }, ""},
		{"inputs emptied", rec, func(b *DataBatch) { b.Inputs = b.Inputs[:0] }, ""},
		{"empty array", `{"id":7,"created_ns":9,"count":2,"inputs":[]}`, func(*DataBatch) {}, ""},
		{"null inputs", `{"id":7,"created_ns":9,"count":2,"inputs":null}`, func(*DataBatch) {}, ""},
		{"edited in place: not seen, Inputs is Score's scratch", rec,
			func(b *DataBatch) { b.Inputs[0] = 99 }, rec},
		{"foreign spellings kept", `{"id":7,"created_ns":9,"count":1,"inputs":[1.0,1e0,0.10000000149011612,-0.0,100e-2]}`,
			func(b *DataBatch) { b.Predictions = []float32{1} },
			`{"id":7,"created_ns":9,"count":1,"inputs":[1.0,1e0,0.10000000149011612,-0.0,100e-2],"predictions":[1]}`},
		{"foreign layout re-formatted", `{"count":1,"id":7,"created_ns":9,"inputs":[1.0, 1e0]}`, func(*DataBatch) {}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := UnmarshalJSONBatch([]byte(tc.rec))
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(b)
			want := []byte(tc.want)
			if tc.want == "" {
				if want, err = json.Marshal(b); err != nil {
					t.Fatal(err)
				}
			}
			got, err := MarshalJSONBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("got  %s\nwant %s", got, want)
			}
			// Whatever the spelling, the same float32 values.
			again, err := UnmarshalJSONBatch(got)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want != "" {
				if b, err = oracleUnmarshalJSON(want); err != nil {
					t.Fatal(err)
				}
			}
			if !sameBatch(again, b) {
				t.Fatalf("re-encoded batch decodes to %+v, want %+v", again, b)
			}
		})
	}
}

// TestTranscodeNeverSplices: a batch decoded by one codec and encoded by
// the other is formatted from Inputs, never from the retained bytes.
func TestTranscodeNeverSplices(t *testing.T) {
	src := &DataBatch{ID: 7, CreatedNanos: 9, Count: 2, Inputs: []float32{1, -2.5, 3e-9, 0}, Predictions: []float32{0.5}}
	codecs := []BatchCodec{JSONCodec{}, BinaryCodec{}}
	for _, from := range codecs {
		for _, to := range codecs {
			rec, err := from.Marshal(src)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := from.Unmarshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := to.Marshal(dec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := to.Marshal(src)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s→%s: %q, want %q", from.Name(), to.Name(), got, want)
			}
		}
	}
}

// fullDecodeCodec hides JSONCodec behind another type, as the benchmark
// harness's timing wrapper does.
type fullDecodeCodec struct {
	JSONCodec
	decoded int
}

func (c *fullDecodeCodec) Unmarshal(data []byte) (*DataBatch, error) {
	c.decoded++
	return c.JSONCodec.Unmarshal(data)
}

func TestStamp(t *testing.T) {
	b := ffnnRecord()
	for _, codec := range []BatchCodec{JSONCodec{}, BinaryCodec{}} {
		rec, err := codec.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		// Truncations at a growing stride, a trailing byte, and a zeroed
		// count: the verdict and the error are the full decode's.
		inputs := [][]byte{rec, append(bytes.Clone(rec), 0)}
		for n := 0; n < len(rec); n += 1 + n/7 {
			inputs = append(inputs, rec[:n])
		}
		if _, ok := codec.(BinaryCodec); ok {
			noCount := bytes.Clone(rec)
			copy(noCount[16:20], []byte{0, 0, 0, 0})
			inputs = append(inputs, noCount)
		}
		for _, in := range inputs {
			want, wantErr := codec.Unmarshal(in)
			id, created, err := stamp(codec, in)
			if (wantErr == nil) != (err == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s, %d bytes: stamp error %v, Unmarshal %v", codec.Name(), len(in), err, wantErr)
			}
			if err == nil && (id != want.ID || created != want.CreatedNanos) {
				t.Fatalf("%s: stamp read %d, %d from a record of %d, %d", codec.Name(), id, created, want.ID, want.CreatedNanos)
			}
		}
		if raceEnabled {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { _, _, _ = stamp(codec, rec) }); n != 0 {
			t.Fatalf("%s: stamp allocates %v times per record, want 0", codec.Name(), n)
		}
	}
	// A codec stamp does not know decodes in full: the harness's wrapper
	// needs the whole batch for its output check.
	rec, err := MarshalJSONBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := &fullDecodeCodec{}
	if id, _, err := stamp(wrapped, rec); err != nil || id != b.ID || wrapped.decoded != 1 {
		t.Fatalf("stamp through a wrapper: id %d, err %v, %d full decodes; want %d, nil, 1", id, err, wrapped.decoded, b.ID)
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

// checkParseFloat32 holds parseJSONFloat32 to strconv.ParseFloat(…, 32)
// on s, a JSON number: same verdict, the same float32 bit for bit, and
// the whole of s consumed when a delimiter follows.
func checkParseFloat32(t *testing.T, s string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(s, 32)
	got, n, ok := parseJSONFloat32([]byte(s + ","))
	if ok != (wantErr == nil) {
		t.Fatalf("parseJSONFloat32(%q): ok %v, strconv error %v", s, ok, wantErr)
	}
	if ok && (n != len(s) || math.Float32bits(got) != math.Float32bits(float32(want))) {
		t.Fatalf("parseJSONFloat32(%q) = %v (%#x), %d bytes; strconv %v (%#x), %d bytes",
			s, got, math.Float32bits(got), n, float32(want), math.Float32bits(float32(want)), len(s))
	}
}

// jsonNumber matches exactly the RFC 8259 §6 number grammar.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

func TestParseJSONFloat32MatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randomFloat32 := func() float32 {
		for {
			if f := math.Float32frombits(rng.Uint32()); !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
				return f
			}
		}
	}
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	// Shortest spellings, as the encoder writes them and in both formats.
	for i := 0; i < 50000; i++ {
		f := randomFloat32()
		enc, _ := appendJSONFloats(nil, []float32{f})
		checkParseFloat32(t, string(enc[1:len(enc)-1]))
		checkParseFloat32(t, strconv.FormatFloat(float64(f), 'f', -1, 32))
		checkParseFloat32(t, strconv.FormatFloat(float64(f), 'e', -1, 32))
		// Magnitudes the fast path covers, where random bit patterns are rare.
		g := float32(rng.Float64() * math.Pow(10, float64(rng.Intn(40)-20)))
		checkParseFloat32(t, strconv.FormatFloat(float64(g), 'f', -1, 32))
	}
	// Long decimals: 0–25 fraction digits behind 0–25 integer digits.
	for i := 0; i < 50000; i++ {
		intPart := "0"
		if n := rng.Intn(26); n > 0 {
			intPart = string(byte('1'+rng.Intn(9))) + digits(n-1)
		}
		s := intPart
		if n := rng.Intn(26); n > 0 {
			s += "." + digits(n)
		}
		if rng.Intn(2) == 0 {
			s = "-" + s
		}
		checkParseFloat32(t, s)
	}
	// Float32 halfway points, where rounding through float64 can go
	// wrong: written out exactly, one digit either side, and as the
	// decimals nearest them that the fast path takes (the most fraction
	// digits, at most 22, that keep the mantissa within 2^53). Some of
	// those are not the halfway point and yet round to it in float64.
	pow10 := func(k int) *big.Int { return new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil) }
	maxMant := new(big.Int).Lsh(big.NewInt(1), 53)
	for i := 0; i < 30000; i++ {
		var f float32
		switch i % 3 {
		case 0:
			f = randomFloat32()
		case 1: // integers and short binary fractions
			f = float32(math.Ldexp(float64(1+rng.Intn(1<<23)), rng.Intn(40)))
		case 2: // the magnitudes the fast path covers
			f = float32(rng.Float64() * math.Pow(10, float64(rng.Intn(30)-15)))
		}
		f = float32(math.Abs(float64(f)))
		next := math.Nextafter32(f, float32(math.Inf(1)))
		if math.IsInf(float64(next), 0) {
			continue
		}
		mid := new(big.Rat).SetFloat64(float64(f))
		mid.Add(mid, new(big.Rat).SetFloat64(float64(next)))
		mid.Quo(mid, big.NewRat(2, 1))
		s := mid.FloatString(mid.Denom().BitLen() - 1) // every digit: the denominator is a power of two
		checkParseFloat32(t, s)
		n := 0 // fraction digits
		if dot := strings.IndexByte(s, '.'); dot >= 0 {
			n = len(s) - dot - 1
		}
		step := new(big.Rat).SetFrac(big.NewInt(1), pow10(n+1))
		checkParseFloat32(t, new(big.Rat).Add(mid, step).FloatString(n+1))
		checkParseFloat32(t, new(big.Rat).Sub(mid, step).FloatString(n+1))
		for k := 22; k >= 0; k-- {
			scaled := new(big.Rat).Mul(mid, new(big.Rat).SetInt(pow10(k)))
			m := new(big.Int).Quo(scaled.Num(), scaled.Denom())
			if m.Cmp(maxMant) > 0 {
				continue
			}
			for d := int64(-1); d <= 2; d++ {
				near := new(big.Int).Add(m, big.NewInt(d))
				if near.Sign() >= 0 && near.Cmp(maxMant) <= 0 {
					checkParseFloat32(t, new(big.Rat).SetFrac(near, pow10(k)).FloatString(k))
				}
			}
			break
		}
	}
	for _, s := range []string{
		"0", "-0", "0.0", "-0.0", "0.000000000000000000000000000000", "-0.000", "1", "-1", "0.5",
		"16777217", "16777216.5", "33554434", "9007199254740992", "9007199254740993",
		"1234567890123456789", "12345678901234567890", "0.1234567890123456789", "0.12345678901234567890123",
		"1000000000000000000000", "10000000000000000000000", "0.0000000000000000000001", "0.00000000000000000000001",
		"340282346638528859811704183484516925440", "340282356779733661637539395458142568448",
		"340282356779733661637539395458142568447", "1e0", "1E5", "-2.5e+3", "1e-46", "1e-45", "1e38", "1e39",
		"3.4028235e38", "3.4028236e38", "1.401298464324817e-45", "7.006492321624085e-46", "0.1e-7",
	} {
		checkParseFloat32(t, s)
	}
	// The grammar: none of these starts with a JSON number, though
	// strconv takes some of them.
	for _, s := range []string{"", "-", "+1", ".5", "-.5", "1.", "1.e5", "1e", "1e+", "1E-", "Inf", "NaN", "-Inf", "a"} {
		if _, _, ok := parseJSONFloat32([]byte(s)); ok {
			t.Fatalf("parseJSONFloat32(%q) accepted", s)
		}
	}
	// A number ends where the grammar does; the caller checks what follows.
	for s, want := range map[string]int{"01": 1, "0x1p-2": 1, "1.5.2": 3, "1e5e": 3, "-0-": 2, "12]": 2} {
		if _, n, ok := parseJSONFloat32([]byte(s)); !ok || n != want {
			t.Fatalf("parseJSONFloat32(%q): %d bytes (ok %v), want %d", s, n, ok, want)
		}
	}
}

// FuzzParseJSONFloat32: on arbitrary text the parser reads a JSON number
// prefix or nothing, and what it reads is strconv's float32 bit for bit.
func FuzzParseJSONFloat32(f *testing.F) {
	for _, s := range []string{"0", "-0.5", "16777217", "0.1234567890123456789012", "1e-45", "3.4028236e38", "1.", "01"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, n, ok := parseJSONFloat32([]byte(s))
		if jsonNumber.MatchString(s) {
			checkParseFloat32(t, s)
		}
		if !ok {
			return
		}
		if n < 1 || n > len(s) || !jsonNumber.MatchString(s[:n]) {
			t.Fatalf("parseJSONFloat32(%q) read %d bytes, not a JSON number", s, n)
		}
		want, err := strconv.ParseFloat(s[:n], 32)
		if err != nil || math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("parseJSONFloat32(%q) = %v; strconv %v, %v", s[:n], got, float32(want), err)
		}
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

// BenchmarkJSONCodecRescore is the scoring operator's encode: a batch
// decoded once, marshalled with its predictions attached. The twin is
// json.Marshal of the same scored record.
func BenchmarkJSONCodecRescore(b *testing.B) {
	rec := ffnnRecord()
	data, err := MarshalJSONBatch(rec)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := UnmarshalJSONBatch(data)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBytes, _ = MarshalJSONBatch(dec)
		}
	})
	b.Run("encodingjson", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBytes, _ = json.Marshal(rec)
		}
	})
}

// BenchmarkJSONCodecStamp is the output consumer's read of one scored
// record; the twin is the full decode it replaced, through the oracle.
func BenchmarkJSONCodecStamp(b *testing.B) {
	data, err := MarshalJSONBatch(ffnnRecord())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchID, _, _ = stamp(JSONCodec{}, data)
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
	benchID    int64
)
