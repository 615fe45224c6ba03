// Package experiments defines one runnable definition per table and figure
// in the paper's evaluation (§5–§6), plus the ablations DESIGN.md calls
// out. Each experiment builds Crayfish configurations, drives the runner,
// and renders the same rows/series the paper reports.
//
// Durations and rates scale with Options.Scale so the whole suite runs in
// milliseconds under `go test` and in seconds under cmd/crayfish-bench.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"crayfish/internal/core"
	"crayfish/internal/loadgen"
	"crayfish/internal/netsim"
	"crayfish/internal/sps"

	// The experiments instantiate every engine by name.
	_ "crayfish/internal/sps/flink"
	_ "crayfish/internal/sps/kstreams"
	_ "crayfish/internal/sps/ray"
	_ "crayfish/internal/sps/sparkss"
)

// Options scales and instruments an experiment run.
type Options struct {
	// Scale multiplies every duration; 1.0 is the full bench profile,
	// tests run at ≈0.05.
	Scale float64
	// Runs is how many times each configuration repeats (the paper
	// runs each experiment twice and reports averages).
	Runs int
	// Parallelisms is the mp sweep for scale-up experiments.
	Parallelisms []int
	// Partitions is the per-topic partition count.
	Partitions int
	// Network models the inter-machine links; defaults to netsim.LAN,
	// the paper's measured GCP profile.
	Network *netsim.Profile
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// fanout is the source/sink parallelism for the operator-level
	// experiments (the paper matches the 32 topic partitions).
	fanout int
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Runs <= 0 {
		o.Runs = 2
	}
	if len(o.Parallelisms) == 0 {
		o.Parallelisms = []int{1, 2, 4, 8, 16}
	}
	if o.fanout <= 0 {
		o.fanout = 32
	}
	if o.Partitions <= 0 {
		o.Partitions = 32
	}
	if o.Network == nil {
		lan := netsim.LAN
		o.Network = &lan
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	return o
}

// scaled converts a full-profile duration through the scale factor,
// clamping to a floor that keeps tiny test runs meaningful.
func (o Options) scaled(d time.Duration) time.Duration {
	s := time.Duration(float64(d) * o.Scale)
	if s < 50*time.Millisecond {
		s = 50 * time.Millisecond
	}
	return s
}

func (o Options) logf(format string, args ...any) {
	fmt.Fprintf(o.Log, format+"\n", args...)
}

// Report is one regenerated table or figure.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// addRow appends a formatted row.
func (r *Report) addRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// addNote appends a free-form note (deviations, environment caveats).
func (r *Report) addNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the report as a GitHub-flavoured markdown section.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s \u2014 %s\n\n", r.ID, r.Title)
	b.WriteString("| " + strings.Join(r.Header, " | ") + " |\n")
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range r.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if len(r.Notes) > 0 {
		b.WriteString("\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "> %s\n", n)
		}
	}
	return b.String()
}

// fmtRate renders events/s.
func fmtRate(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.1fk", v/1000)
	case v >= 10:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// fmtMs renders a duration in milliseconds.
func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

// ffnnWorkload is the FFNN (28×28) workload skeleton.
func (o Options) ffnnWorkload() core.Workload {
	return core.Workload{InputShape: []int{28, 28}, BatchSize: 1, Seed: 1}
}

// resnetWorkload is the benchmark-ResNet (3×64×64) workload skeleton.
func (o Options) resnetWorkload() core.Workload {
	return core.Workload{InputShape: []int{3, 64, 64}, BatchSize: 1, Seed: 1}
}

// transformerWorkload is the transformer (32 tokens × 64 embedding)
// workload skeleton.
func (o Options) transformerWorkload() core.Workload {
	return core.Workload{InputShape: []int{32, 64}, BatchSize: 1, Seed: 1}
}

// baseConfig assembles a config with the suite's environment defaults.
func (o Options) baseConfig(engine string, serving core.ServingConfig, w core.Workload, modelName string, mp int) core.Config {
	return core.Config{
		Workload:           w,
		Engine:             engine,
		Serving:            serving,
		Model:              core.ModelSpec{Name: modelName, Seed: 1},
		ParallelismDefault: mp,
		Partitions:         o.Partitions,
		Network:            *o.Network,
	}
}

// embedded and external shorthands.
func embeddedTool(tool string) core.ServingConfig {
	return core.ServingConfig{Mode: core.Embedded, Tool: tool}
}

func externalTool(tool string) core.ServingConfig {
	return core.ServingConfig{Mode: core.External, Tool: tool}
}

// openLoopRate returns the paper's open-loop probe rate for a model
// (§4.1/§5: ir = 30k events/s for FFNN, 256 for ResNet; the
// transformer sits between them at 512).
func openLoopRate(modelName string) float64 {
	if modelName == "resnet" || modelName == "resnet50" {
		return 256
	}
	if modelName == "transformer" {
		return 512
	}
	return 30_000
}

// openLoop spells the paper's constant input rate ir as a Workload.Load.
func openLoop(rate float64) *loadgen.Policy {
	p := loadgen.Constant(rate)
	return &p
}

// saturate measures open-loop throughput. A short probe at the paper's
// nominal rate estimates the SUT's capacity; the measured run then drives
// it at 1.3× that estimate — still above sustainable, but with bounded
// backlog, so broker-log growth and GC churn do not add run-to-run noise.
// Results are averaged over o.Runs.
func (o Options) saturate(cfg core.Config, d time.Duration) (float64, error) {
	return o.saturateWith(&core.Runner{DrainTimeout: time.Millisecond}, cfg, d)
}

// saturateWithEngine is saturate with an explicit engine instance (for
// engine-variant ablations).
func (o Options) saturateWithEngine(cfg core.Config, engine sps.Processor, d time.Duration) (float64, error) {
	return o.saturateWith(&core.Runner{DrainTimeout: time.Millisecond, Engine: engine}, cfg, d)
}

func (o Options) saturateWith(runner *core.Runner, cfg core.Config, d time.Duration) (float64, error) {

	probe := cfg
	probe.Workload.Load = openLoop(openLoopRate(cfg.Model.Name))
	probe.Workload.Duration = d / 2
	if probe.Workload.Duration < 400*time.Millisecond {
		probe.Workload.Duration = 400 * time.Millisecond
	}
	probeRes, err := runner.Run(probe)
	if err != nil {
		return 0, err
	}
	// 1.5× headroom over the probe: large topologies warm up slowly and
	// bias short probes low, and the offered rate must stay above the
	// true capacity for the main run to measure capacity rather than
	// echo the rate.
	rate := probeRes.Metrics.Throughput * 1.5
	if nominal := openLoopRate(cfg.Model.Name); rate > nominal {
		rate = nominal
	}

	cfg.Workload.Load = openLoop(rate)
	cfg.Workload.Duration = d
	results, err := runner.RunAveraged(cfg, o.Runs)
	if err != nil {
		return 0, err
	}
	return core.MeanThroughput(results), nil
}

// closedLoop measures end-to-end latency at a low input rate, raising the
// rate just enough to collect a handful of samples in very short runs. It
// returns the run-averaged mean and p99 (the paper reports run averages).
func (o Options) closedLoop(cfg core.Config, rate float64, d time.Duration) (mean, p99 time.Duration, err error) {
	if minRate := 4 / d.Seconds(); rate < minRate {
		rate = minRate
	}
	cfg.Workload.Load = openLoop(rate)
	cfg.Workload.Duration = d
	runner := &core.Runner{}
	results, err := runner.RunAveraged(cfg, o.Runs)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range results {
		mean += r.Metrics.Latency.Mean / time.Duration(len(results))
		p99 += r.Metrics.Latency.P99 / time.Duration(len(results))
	}
	return mean, p99, nil
}
