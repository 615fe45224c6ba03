package core

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/loadgen"
	"crayfish/internal/netsim"
)

var osWriteFile = os.WriteFile

func TestNoopScorer(t *testing.T) {
	n := NoopScorer{Inputs: 4, Outputs: 2}
	if n.Name() != "noop" || n.InputLen() != 4 || n.OutputSize() != 2 {
		t.Fatalf("metadata %v", n)
	}
	out, err := n.Score(make([]float32, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("output %d", len(out))
	}
	if _, err := n.Score(make([]float32, 3), 1); err == nil {
		t.Fatal("short batch accepted")
	}
}

func TestBuildScorerInt8(t *testing.T) {
	m, err := ModelSpec{Name: "ffnn", Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The Int8 flag and the "+int8" device suffix are equivalent
	// spellings; both produce a working embedded scorer.
	for _, cfg := range []ServingConfig{
		{Mode: Embedded, Tool: "onnx", Int8: true},
		{Mode: Embedded, Tool: "onnx", Device: "cpu+int8"},
	} {
		sc, cleanup, err := BuildScorerNet(cfg, m, 1, netsim.Loopback)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		out, err := sc.Score(make([]float32, m.InputLen()), 1)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if len(out) != m.OutputSize {
			t.Fatalf("%+v: output %d", cfg, len(out))
		}
		cleanup()
	}
	// External serving tools manage their own precision.
	if _, _, err := BuildScorerNet(ServingConfig{Mode: External, Tool: "tf-serving", Int8: true}, m, 1, netsim.Loopback); err == nil {
		t.Fatal("external int8 accepted")
	}
	// The unfused savedmodel runtime cannot execute a quantized plan.
	if _, _, err := BuildScorerNet(ServingConfig{Mode: Embedded, Tool: "savedmodel", Int8: true}, m, 1, netsim.Loopback); err == nil {
		t.Fatal("savedmodel int8 accepted")
	}
}

func TestValidateBrokerHeadroom(t *testing.T) {
	cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	cfg.Workload.Duration = 300 * time.Millisecond
	// The check offers its own rate: whatever Load the config carried is
	// replaced, not rejected.
	poisson := loadgen.Poisson(50, 1)
	cfg.Workload.Load = &poisson
	r := &Runner{DrainTimeout: 100 * time.Millisecond}
	// A no-op pipeline easily sustains a modest target.
	tput, err := r.ValidateBrokerHeadroom(cfg, 100, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if tput < 100 {
		t.Fatalf("no-op throughput %.1f below target", tput)
	}
	// An absurd target fails the check with the measured rate attached.
	if _, err := r.ValidateBrokerHeadroom(cfg, 1e9, 1.0); err == nil {
		t.Fatal("absurd headroom target passed")
	}
}

func TestFindSustainableRate(t *testing.T) {
	cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	// The search offers its own rates, whatever Load the config carried.
	poisson := loadgen.Poisson(50, 1)
	cfg.Workload.Load = &poisson
	r := &Runner{}
	st, err := r.FindSustainableRate(cfg, SustainableThroughputOptions{
		Low:           50,
		High:          100_000,
		ProbeDuration: 200 * time.Millisecond,
		Tolerance:     0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st < 50 || st >= 100_000 {
		t.Fatalf("sustainable rate %.1f out of plausible range", st)
	}
	// Validation paths.
	if _, err := r.FindSustainableRate(cfg, SustainableThroughputOptions{Low: 10, High: 5}); err == nil {
		t.Fatal("inverted bounds accepted")
	}
	// A floor above capacity must be reported.
	if _, err := r.FindSustainableRate(cfg, SustainableThroughputOptions{
		Low: 5e8, High: 1e9, ProbeDuration: 150 * time.Millisecond,
	}); err == nil {
		t.Fatal("unsustainable floor accepted")
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "points.crf")
	points := []float32{1, 2, 3, 4, 5, 6}
	if err := WriteDataset(path, points, 3); err != nil {
		t.Fatal(err)
	}
	ds, err := ReadDataset(path)
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
	if err := WriteDataset(filepath.Join(dir, "x"), []float32{1, 2, 3}, 2); err == nil {
		t.Fatal("ragged dataset accepted")
	}
	if _, err := ReadDataset(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := WriteDataset(bad, []float32{1, 2}, 2); err != nil {
		t.Fatal(err)
	}
	ds, err := ReadDataset(bad)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{InputShape: []int{3}}
	if err := ds.Validate(&w); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	empty := &Dataset{PointLen: 2}
	if err := empty.Validate(&Workload{InputShape: []int{2}}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestDatasetRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := WriteDataset(path, []float32{1}, 1); err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic.
	data := []byte("NOTADATASET")
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDataset(path); err == nil {
		t.Fatal("corrupt magic accepted")
	}
}

func TestProducerFromDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.crf")
	points := make([]float32, 3*4) // 3 points of length 4
	for i := range points {
		points[i] = float32(i) + 0.5
	}
	if err := WriteDataset(path, points, 4); err != nil {
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
	batch, err := UnmarshalJSONBatch(recs[0].Value)
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
