package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/netsim"
)

var osWriteFile = os.WriteFile

func TestBuildScorerInt8(t *testing.T) {
	m, err := ModelSpec{Name: "ffnn", Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The "+int8" device suffix produces a working embedded scorer.
	sc, cleanup, err := BuildScorerNet(ServingConfig{Mode: Embedded, Tool: "onnx", Device: "cpu+int8"}, m, 1, netsim.Loopback)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sc.Score(make([]float32, m.InputLen()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != m.OutputSize {
		t.Fatalf("output %d", len(out))
	}
	cleanup()
	// External serving tools manage their own precision.
	if _, _, err := BuildScorerNet(ServingConfig{Mode: External, Tool: "tf-serving", Device: "cpu+int8"}, m, 1, netsim.Loopback); err == nil {
		t.Fatal("external int8 accepted")
	}
	// The unfused savedmodel runtime cannot execute a quantized plan.
	if _, _, err := BuildScorerNet(ServingConfig{Mode: Embedded, Tool: "savedmodel", Device: "cpu+int8"}, m, 1, netsim.Loopback); err == nil {
		t.Fatal("savedmodel int8 accepted")
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "points.crf")
	points := []float32{1, 2, 3, 4, 5, 6}
	if err := writeDataset(path, points, 3); err != nil {
		t.Fatal(err)
	}
	ds, err := readDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds.PointLen != 3 || len(ds.Points) != 2 {
		t.Fatalf("dataset %d×%d", len(ds.Points), ds.PointLen)
	}
	if ds.Points[1][2] != 6 {
		t.Fatalf("point value %v", ds.Points[1])
	}
	// Cycling: batch past the end wraps around.
	b := ds.batchAt(5, 1)
	if len(b) != 3 {
		t.Fatalf("batch len %d", len(b))
	}
}

func TestDatasetValidation(t *testing.T) {
	dir := t.TempDir()
	if err := writeDataset(filepath.Join(dir, "x"), []float32{1, 2, 3}, 2); err == nil {
		t.Fatal("ragged dataset accepted")
	}
	if _, err := readDataset(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := writeDataset(bad, []float32{1, 2}, 2); err != nil {
		t.Fatal(err)
	}
	ds, err := readDataset(bad)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{InputShape: []int{3}}
	if err := ds.Validate(&w); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	empty := &dataset{PointLen: 2}
	if err := empty.Validate(&Workload{InputShape: []int{2}}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestDatasetRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := writeDataset(path, []float32{1}, 1); err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic.
	data := []byte("NOTADATASET")
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := readDataset(path); err == nil {
		t.Fatal("corrupt magic accepted")
	}
}

// TestDatasetHeaderCannotSizeAllocations: a 16-byte file whose header
// claims more floats than it holds is refused before the reader sizes
// anything from those counts. 2^24 × 2^24 allocated ≈ 470 MB once; the
// two larger headers make 4·count·pointLen wrap an int64 (to 0 and to a
// negative number), so a bound computed by multiplying lets them through.
func TestDatasetHeaderCannotSizeAllocations(t *testing.T) {
	for _, tc := range []struct{ pointLen, count uint32 }{
		{1 << 24, 1 << 24},
		{1 << 31, 1 << 31},
		{0xFFFFFFFF, 0xFFFFFFFF},
	} {
		path := filepath.Join(t.TempDir(), "header-only.crf")
		hdr := make([]byte, 8)
		binary.LittleEndian.PutUint32(hdr, tc.pointLen)
		binary.LittleEndian.PutUint32(hdr[4:], tc.count)
		if err := writeFile(path, append([]byte(datasetMagic), hdr...)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readDataset(path)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("a header-only dataset claiming %d points of %d floats was accepted", tc.count, tc.pointLen)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%d×%d: reading a 16-byte dataset allocated %d bytes, want < 1 MiB", tc.count, tc.pointLen, grew)
		}
	}
}

func TestProducerFromDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.crf")
	points := make([]float32, 3*4) // 3 points of length 4
	for i := range points {
		points[i] = float32(i) + 0.5
	}
	if err := writeDataset(path, points, 4); err != nil {
		t.Fatal(err)
	}
	b := broker.New(broker.DefaultConfig())
	if err := b.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	w := Workload{
		InputShape:  []int{4},
		BatchSize:   2,
		MaxEvents:   2,
		Duration:    time.Second,
		DatasetPath: path,
	}
	p, err := NewInputProducer(b, "in", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(nil); err != nil {
		t.Fatal(err)
	}
	recs, err := b.Fetch("in", 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("produced %d records", len(recs))
	}
	batch, err := unmarshalJSONBatch(recs[0].Value)
	if err != nil {
		t.Fatal(err)
	}
	// First batch = points 0 and 1 verbatim, not synthetic noise.
	if math.Abs(float64(batch.Inputs[0])-0.5) > 1e-6 || math.Abs(float64(batch.Inputs[4])-4.5) > 1e-6 {
		t.Fatalf("dataset values not used: %v", batch.Inputs[:8])
	}
	// Mismatched shape is rejected at construction.
	w.InputShape = []int{5}
	if _, err := NewInputProducer(b, "in", w, nil); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// writeFile is a small test helper (os.WriteFile with default perms).
func writeFile(path string, data []byte) error {
	return osWriteFile(path, data, 0o644)
}

// writeDataset stores data points (flattened row-major, pointLen values
// each) to path.
func writeDataset(path string, points []float32, pointLen int) error {
	if pointLen <= 0 || len(points)%pointLen != 0 {
		return fmt.Errorf("core: %d values do not form %d-length points", len(points), pointLen)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(datasetMagic); err != nil {
		return err
	}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr, uint32(pointLen))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(points)/pointLen))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for _, v := range points {
		binary.LittleEndian.PutUint32(buf, math.Float32bits(v))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return w.Flush()
}
