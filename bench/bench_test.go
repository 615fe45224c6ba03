package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/core"
	"crayfish/internal/model"
	"crayfish/internal/netsim"
	"crayfish/internal/serving"
)

// TestWrappersAreTransparent: a traced wrapper implements exactly the
// optional interfaces the value it wraps implements. A wrapper that hid
// one would push the traced run onto the product's fallback paths
// (timed re-poll, allocating fetch) and measure a different program;
// one that added one would claim a capability the transport lacks.
func TestWrappersAreTransparent(t *testing.T) {
	tr := newTracer(1, 1, 0, 0)

	b := broker.New(broker.DefaultConfig())
	defer b.Close()
	srv, err := broker.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := broker.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	for name, inner := range map[string]broker.Transport{"*broker.Broker": b, "*broker.RemoteClient": remote} {
		wrapped := wrapTransport(inner, tr)
		_, innerNotifies := inner.(broker.AppendNotifier)
		_, wrappedNotifies := wrapped.(broker.AppendNotifier)
		if innerNotifies != wrappedNotifies {
			t.Errorf("%s: AppendNotifier inner=%v wrapped=%v", name, innerNotifies, wrappedNotifies)
		}
		_, innerInto := inner.(broker.MultiFetcherInto)
		_, wrappedInto := wrapped.(broker.MultiFetcherInto)
		if innerInto != wrappedInto {
			t.Errorf("%s: MultiFetcherInto inner=%v wrapped=%v", name, innerInto, wrappedInto)
		}
	}
	if _, ok := wrapTransport(b, tr).(broker.MultiFetcherInto); !ok {
		t.Error("the in-process broker's allocation-free fetch must survive wrapping")
	}

	m := model.NewFFNN(1)
	for name, sc := range map[string]core.ServingConfig{
		"embedded runtime": {Mode: core.Embedded, Tool: "onnx"},
		"external client":  {Mode: core.External, Tool: "tf-serving"},
	} {
		inner, cleanup, err := core.BuildScorerNet(sc, m, 1, netsim.Loopback)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := wrapScorer(inner, tr)
		_, innerCloses := inner.(serving.Closer)
		_, wrappedCloses := wrapped.(serving.Closer)
		if innerCloses != wrappedCloses {
			t.Errorf("%s: Closer inner=%v wrapped=%v", name, innerCloses, wrappedCloses)
		}
		_, innerArena := inner.(serving.ArenaStatser)
		_, wrappedArena := wrapped.(serving.ArenaStatser)
		if innerArena != wrappedArena {
			t.Errorf("%s: ArenaStatser inner=%v wrapped=%v", name, innerArena, wrappedArena)
		}
		cleanup()
	}
}

// smokeRun executes the harness's -smoke mode once for the tests that
// read its outputs.
var smoke struct {
	once   sync.Once
	dir    string
	code   int
	took   time.Duration
	stdout bytes.Buffer
	stderr bytes.Buffer
	res    *result
	err    error
}

func smokeRun(t *testing.T) {
	t.Helper()
	smoke.once.Do(func() {
		smoke.dir, smoke.err = os.MkdirTemp("", "bench-smoke")
		if smoke.err != nil {
			return
		}
		start := time.Now()
		smoke.code = run([]string{"-smoke", "-out", smoke.dir}, &smoke.stdout, &smoke.stderr)
		smoke.took = time.Since(start)
		if smoke.code == 0 {
			smoke.res, smoke.err = readResult(filepath.Join(smoke.dir, "result.json"))
		}
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	if smoke.code != 0 {
		t.Fatalf("-smoke exited %d: %s", smoke.code, smoke.stderr.String())
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if smoke.dir != "" {
		os.RemoveAll(smoke.dir)
	}
	os.Exit(code)
}

// TestSmoke: every workload and probe runs end to end against the layer
// APIs, prints and writes every metric, and stays quick.
func TestSmoke(t *testing.T) {
	smokeRun(t)
	if smoke.took > 15*time.Second && !raceEnabled {
		t.Errorf("-smoke took %v, want < 15s", smoke.took)
	}
	for _, w := range workloads {
		rep := smoke.res.Workloads[w.name]
		if rep == nil {
			t.Fatalf("no report for %s", w.name)
		}
		for _, d := range endToEnd {
			if _, ok := rep.EndToEnd[d.name]; !ok {
				t.Errorf("%s: end-to-end metric %s missing", w.name, d.name)
			}
			if !strings.Contains(smoke.stdout.String(), d.name) {
				t.Errorf("%s not printed", d.name)
			}
		}
		for _, d := range perLayer {
			if _, ok := rep.PerLayer[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, d.name)
			}
			if !strings.Contains(smoke.stdout.String(), d.name) {
				t.Errorf("%s not printed", d.name)
			}
		}
		if rep.Failed != 0 || rep.Mismatched != 0 {
			t.Errorf("%s: %d of %d events failed, %d of %d checked outputs differ", w.name, rep.Failed, rep.Attempted, rep.Mismatched, rep.Checked)
		}
		if rep.Checked == 0 {
			t.Errorf("%s: no scored output was checked against the reference", w.name)
		}
	}
}

// TestConservation: on a short traced run of each workload the seven
// stage spans of an event sum to its measured latency, and the span
// file carries name, start, end, parent and event ID.
func TestConservation(t *testing.T) {
	smokeRun(t)
	for _, w := range workloads {
		rep := smoke.res.Workloads[w.name]
		if e := rep.PerLayer["trace.conservation_err_p99"].Value; e > 0.02 {
			t.Errorf("%s: conservation error p99 %.4f > 0.02", w.name, e)
		}
		var share float64
		for _, s := range stageNames {
			share += rep.PerLayer["stage."+s+"_share"].Value
		}
		if raceEnabled && share == 0 {
			// Too slow under the race detector to score anything after
			// the smoke run's quarter-second warm-up: nothing to sum.
			continue
		}
		if share < 0.98 || share > 1.02 {
			t.Errorf("%s: stage shares sum to %.4f, want 1", w.name, share)
		}

		f, err := os.Open(filepath.Join(smoke.dir, "trace-"+w.name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		type rec struct {
			ID     int    `json:"id"`
			Parent *int   `json:"parent"`
			Name   string `json:"name"`
			Event  *int64 `json:"event"`
			Start  *int64 `json:"start_ns"`
			End    *int64 `json:"end_ns"`
		}
		roots := map[int]rec{}
		stages := map[int]int64{} // root → Σ stage durations
		lines := 0
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			lines++
			var r rec
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("%s line %d: %v", w.name, lines, err)
			}
			if r.Name == "" || r.Parent == nil || r.Event == nil || r.Start == nil || r.End == nil {
				t.Fatalf("%s line %d lacks a field: %s", w.name, lines, sc.Text())
			}
			switch {
			case r.Name == "event":
				roots[r.ID] = r
			case strings.HasPrefix(r.Name, "stage."):
				if _, ok := roots[*r.Parent]; !ok {
					t.Fatalf("%s line %d: stage span without its event root", w.name, lines)
				}
				stages[*r.Parent] += *r.End - *r.Start
			}
		}
		f.Close()
		if len(roots) == 0 {
			t.Fatalf("%s: span file has no event", w.name)
		}
		for id, root := range roots {
			if got, want := stages[id], *root.End-*root.Start; got != want {
				t.Errorf("%s event %d: stages sum to %d ns, latency is %d ns", w.name, *root.Event, got, want)
				break
			}
		}
	}
}

// TestGeneratorHealth: a run whose generator ran late, fell short of
// its schedule or had schedule debt forgiven is marked generator-bound
// instead of booking a latency.
func TestGeneratorHealth(t *testing.T) {
	w := &workload{sloMs: 8}
	const n = 1000
	d := time.Second
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(i) * d / n
	}
	start := time.Unix(1000, 0)
	samples := func(late time.Duration) []core.Sample {
		out := make([]core.Sample, n)
		for i := range out {
			created := start.Add(offsets[i] + late)
			out[i] = core.Sample{ID: int64(i), Start: created, End: created.Add(time.Millisecond)}
		}
		return out
	}
	for _, c := range []struct {
		name     string
		late     time.Duration
		produced int
		bound    bool
	}{
		{"on time", 100 * time.Microsecond, n, false},
		{"late beyond slo/4", 3 * time.Millisecond, n, true},
		{"short of the schedule", 100 * time.Microsecond, n * 9 / 10, true},
		{"debt forgiven", 1100 * time.Millisecond, n, true},
	} {
		ol := analyseOpenLoop(w, samples(c.late)[:c.produced], start, offsets, c.produced, d, 0.25, 1)
		if ol.generatorBound != c.bound {
			t.Errorf("%s: generatorBound=%v (%s), want %v", c.name, ol.generatorBound, ol.reason, c.bound)
		}
		if !c.bound && (ol.latP50 < 1.05 || ol.latP50 > 1.15) {
			t.Errorf("%s: latency from due time p50 %.3f ms, want creation lateness + 1 ms", c.name, ol.latP50)
		}
	}
}

// TestOutputCheck: the reference comparison accepts the reference's own
// output and rejects a changed prediction, and a mismatch counts as a
// failed event.
func TestOutputCheck(t *testing.T) {
	m := model.NewFFNN(1)
	in := randInputs(m.InputLen())
	x, err := m.BatchInput(append([]float32(nil), in...), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	good := &core.DataBatch{ID: 1, Count: 1, Inputs: in, Predictions: append([]float32(nil), want.Data()...)}
	bad := &core.DataBatch{ID: 2, Count: 1, Inputs: in, Predictions: append([]float32(nil), want.Data()...)}
	bad.Predictions[0] += 0.01
	checked, mismatched, err := checkOutputs(m, []*core.DataBatch{good, bad})
	if err != nil || checked != 2 || mismatched != 1 {
		t.Fatalf("checked %d mismatched %d err %v, want 2, 1, nil", checked, mismatched, err)
	}
	res := &tracedResult{produced: 2, scored: 2, mismatched: mismatched}
	if res.failed() != 1 {
		t.Errorf("failed() = %d, want the mismatch counted", res.failed())
	}
}

// TestCompare: -compare passes two agreeing result files, flags a
// difference beyond a metric's bound in either direction, and exits
// non-zero on it.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, drain float64) string {
		res := &result{Workloads: map[string]*workloadReport{"ffnn-inproc": {EndToEnd: pick(endToEnd, map[string]float64{
			"setup_s": 0.001, "drain_eps": drain, "lat_p50_ms": 1.4, "lat_p99_ms": 3.5, "slo_rate_eps": 2673,
		})}}}
		path := filepath.Join(dir, name)
		if err := writeResult(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slower := write("a.json", 4000), write("same.json", 4100), write("slower.json", 2800)
	var out, errOut bytes.Buffer
	if code := compareFiles(a, same, &out, &errOut); code != 0 {
		t.Errorf("agreeing files: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(a, slower, &out, &errOut); code != 1 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("30%% slower drain: exit %d\n%s", code, out.String())
	}
	if code := run([]string{"-compare", a}, &out, &errOut); code != 2 {
		t.Errorf("-compare with one file: exit %d, want usage error", code)
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json at the repository root names
// the same workloads and metrics, with the same units, directions and
// bounds, as the harness reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bm struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if bm.RunSeconds != refSeconds {
		t.Errorf("run_seconds %v, harness calibrated at %v", bm.RunSeconds, float64(refSeconds))
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, harness has %s: %s", i, bm.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, harness has %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the harness's %v", kind, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd, true)
	check("per_layer", bm.PerLayer, perLayer, false)
}
