// Command bench is the repository's benchmark: four pipeline workloads,
// end-to-end numbers from untraced runs through the product's own
// core.Runner, per-layer numbers from a traced run the harness assembles
// from the same exported pieces. See README.md.
//
//	go run . [-seed n] [-seconds s]            every workload, both passes, writes out/result.json
//	go run . -workload name -trace 0|1 ...     one workload, one pass; last stdout line is the driver's JSON
//	go run . -smoke                            everything at ~1 s, nothing enforced
//	go run . -compare a.json b.json            two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// result is the file a full pass writes and -compare reads.
type result struct {
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	GoVersion  string                     `json:"go"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

// driverLine is the one JSON object the benchmark driver reads from the
// last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and end with the driver's JSON line")
	seed := fs.Int64("seed", 1, "seed of the synthetic inputs and the Poisson schedule")
	seconds := fs.Float64("seconds", refSeconds, "how long one pass of one workload measures")
	trace := fs.Int("trace", -1, "0: end-to-end pass only, 1: per-layer pass only, -1: both")
	smoke := fs.Bool("smoke", false, "every workload and probe at about a second, nothing enforced")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	out := fs.String("out", "out", "directory for result.json and the trace-<workload>.jsonl span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	p := plan{seconds: *seconds, smoke: *smoke}
	if *smoke {
		p.seconds = 1
	}

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []*workload{w}
	}

	res := &result{Seed: *seed, Seconds: p.seconds, GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Workloads: map[string]*workloadReport{}}
	var probed map[string]float64
	ok := true
	for _, w := range selected {
		rep := &workloadReport{}
		if *trace != 1 {
			e2e, err := endToEndPass(w, *seed, p)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			rep = e2e
		}
		if *trace != 0 {
			if probed == nil {
				// One probe pass serves every workload of the invocation.
				var err error
				if probed, err = probes(p.dur(probeBudgetSec), p.count(noopRecords)); err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
			}
			layers, err := perLayerPass(w, *seed, p, probed, *out)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			rep.merge(layers)
		}
		res.Workloads[w.name] = rep
		printReport(stdout, w, rep)
		if !*smoke && (rep.Failed > 0 || rep.Mismatched > 0) {
			ok = false
		}
	}

	if *name == "" || *trace == -1 {
		path := filepath.Join(*out, "result.json")
		if err := writeResult(path, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", path)
	}
	if *name != "" && *trace != -1 {
		rep := res.Workloads[*name]
		line := driverLine{Correct: rep.Mismatched == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.EndToEnd}
		if *trace == 1 {
			line.Metrics = rep.PerLayer
		}
		enc, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(enc))
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: FAILED: events failed or scored outputs differ from the reference")
		return 1
	}
	return 0
}

// merge folds the per-layer pass into the report of the end-to-end pass.
func (r *workloadReport) merge(o *workloadReport) {
	r.PerLayer = o.PerLayer
	r.Ladder = o.Ladder
	r.GeneratorBound = r.GeneratorBound || o.GeneratorBound
	r.Notes = append(r.Notes, o.Notes...)
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Checked, r.Mismatched = o.Checked, o.Mismatched
}

func printReport(w io.Writer, wl *workload, rep *workloadReport) {
	fmt.Fprintf(w, "== %s  (gomaxprocs %d)\n", wl.name, runtime.GOMAXPROCS(0))
	section := func(title string, defs []metricDef, values map[string]measurement) {
		if len(values) == 0 {
			return
		}
		fmt.Fprintf(w, "-- %s\n", title)
		for _, d := range defs {
			m := values[d.name]
			fmt.Fprintf(w, "%-36s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	section("end to end", endToEnd, rep.EndToEnd)
	for _, st := range rep.Ladder {
		verdict := "pass"
		if !st.Pass {
			verdict = "FAIL: " + st.Why
		}
		fmt.Fprintf(w, "   ladder %8.0f events/s  p99 %9.3f ms  generator late p99 %7.3f ms  %s\n", st.Rate, st.P99Ms, st.LateP99Ms, verdict)
	}
	section("per layer", perLayer, rep.PerLayer)
	fmt.Fprintf(w, "-- attempted %d  failed %d  outputs checked %d  mismatched %d  generator_bound %v\n", rep.Attempted, rep.Failed, rep.Checked, rep.Mismatched, rep.GeneratorBound)
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "   note:", n)
	}
}

func writeResult(path string, res *result) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// compareFiles prints, per workload and end-to-end metric, both values,
// the relative difference and the bound. Between two runs of the same
// code a difference beyond the bound means the metric is unresolved at
// this run length, not that anything changed. It returns 1 on any
// breach.
func compareFiles(aPath, bPath string, stdout, stderr io.Writer) int {
	a, err := readResult(aPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readResult(bPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	breaches := 0
	fmt.Fprintf(stdout, "%-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "b vs a", "bound")
	for _, n := range names {
		ra, rb := a.Workloads[n], b.Workloads[n]
		if rb == nil {
			fmt.Fprintf(stdout, "%-16s missing from %s\n", n, bPath)
			breaches++
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.EndToEnd[d.name].Value, rb.EndToEnd[d.name].Value
			worse := ratio(vb-va, va) // positive = b worse, for a lower-is-better metric
			if d.better == "higher" {
				worse = ratio(va-vb, va)
			}
			verdict := ""
			if worse > d.bound || -worse > d.bound {
				verdict = "unresolved"
				breaches++
			}
			fmt.Fprintf(stdout, "%-16s %-14s %14.4f %14.4f %+8.1f%% %6.0f%% %s\n", n, d.name, va, vb, 100*ratio(vb-va, va), 100*d.bound, verdict)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(stdout, "%-16s failed events: a %d of %d, b %d of %d\n", n, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			breaches++
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d breach(es)\n", breaches)
		return 1
	}
	return 0
}
