package experiments

import (
	"strconv"
	"strings"
	"testing"

	"crayfish/internal/netsim"
)

// tinyOptions runs experiments at the smallest meaningful scale with a
// light network profile so the whole suite stays fast under `go test`.
func tinyOptions() Options {
	lan := netsim.Profile{Latency: netsim.LAN.Latency / 4, BandwidthBytesPerSec: netsim.LAN.BandwidthBytesPerSec}
	return Options{
		Scale:        0.04,
		Runs:         1,
		Parallelisms: []int{1, 2},
		fanout:       4,
		Partitions:   4,
		Network:      &lan,
	}
}

func TestTable2(t *testing.T) {
	r, err := table2ModelSizes()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	if !strings.Contains(r.String(), "ffnn") {
		t.Fatal("report missing ffnn row")
	}
}

func TestTable4Tiny(t *testing.T) {
	r, err := table4ServingThroughput(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("rows %d", len(r.Rows))
	}
}

func TestTable5Tiny(t *testing.T) {
	r, err := table5SPSThroughput(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows %d", len(r.Rows))
	}
}

func TestFigure5Tiny(t *testing.T) {
	opts := tinyOptions()
	r, err := figure5LatencyBatchSize(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows %d", len(r.Rows))
	}
}

func TestFigure6Tiny(t *testing.T) {
	r, err := figure6ScaleUpFFNN(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 || len(r.Header) != 3 {
		t.Fatalf("shape %dx%d", len(r.Rows), len(r.Header))
	}
}

func TestFigure7Tiny(t *testing.T) {
	r, err := figure7ScaleUpResNet(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
}

func TestFigure8Tiny(t *testing.T) {
	r, err := figure8BurstRecovery(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows %d", len(r.Rows))
	}
}

func TestFigure9Tiny(t *testing.T) {
	r, err := figure9GPUAcceleration(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows %d", len(r.Rows))
	}
}

func TestFigure10Tiny(t *testing.T) {
	r, err := figure10SPSLatency(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows %d", len(r.Rows))
	}
}

func TestFigure11Tiny(t *testing.T) {
	r, err := figure11SPSScaleUp(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows %d", len(r.Rows))
	}
}

func TestFigure12Tiny(t *testing.T) {
	r, err := figure12OperatorParallelism(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows %d", len(r.Rows))
	}
}

func TestFigure13Tiny(t *testing.T) {
	r, err := figure13KafkaOverhead(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows %d", len(r.Rows))
	}
}

func TestAblationsTiny(t *testing.T) {
	for _, d := range All() {
		if !strings.HasPrefix(d.ID, "ablation-") {
			continue
		}
		r, err := d.Run(tinyOptions())
		if err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
		if len(r.Rows) < 2 {
			t.Fatalf("%s: rows %d", d.ID, len(r.Rows))
		}
	}
}

func TestAblationKernelsInt8Arm(t *testing.T) {
	r, err := ablationFastKernels(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if strings.Contains(row[0], "int8") {
			return
		}
	}
	t.Fatalf("no int8 arm in ablation-kernels rows: %v", r.Rows)
}

func TestRecoveryTiny(t *testing.T) {
	r, err := recoveryFaultInjection(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[2] != "120" {
			t.Fatalf("produced %q, want 120: %v", row[2], row)
		}
		if row[3] != "6" || row[4] != "4" {
			t.Fatalf("message-fault books off: %v", row)
		}
		if row[5] != "0" {
			t.Fatalf("records lost beyond planned drops: %v", row)
		}
	}
}

func TestFailoverTiny(t *testing.T) {
	r, err := brokerFailover(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[2] != "120" {
			t.Fatalf("produced %q, want 120: %v", row[2], row)
		}
		if row[3] != "0" {
			t.Fatalf("acked records lost across the leader crash: %v", row)
		}
		if f, err := strconv.Atoi(row[4]); err != nil || f < 1 {
			t.Fatalf("failovers %q, want >= 1: %v", row[4], row)
		}
		if row[8] != "byte-identical" {
			t.Fatalf("fault-log replay diverged: %v", row)
		}
	}
}

func TestScenariosTiny(t *testing.T) {
	r, err := scenarioSuite(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 4 scenarios × 4 engine/serving pairs + 4 sweep steps.
	if len(r.Rows) != 20 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	kinds := map[string]int{}
	for _, row := range r.Rows {
		kinds[row[0]]++
		if row[6] != "PASS" && row[6] != "FAIL" {
			t.Fatalf("verdict cell %q: %v", row[6], row)
		}
	}
	for _, k := range []string{"single-stream", "multi-stream", "server", "offline"} {
		if kinds[k] != 4 {
			t.Fatalf("scenario %s has %d rows, want 4", k, kinds[k])
		}
	}
	if kinds["server sweep"] != 4 {
		t.Fatalf("sweep rows %d, want 4", kinds["server sweep"])
	}
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "server capacity") {
			found = true
		}
	}
	if !found {
		t.Fatal("report missing the capacity note")
	}
}

func TestRegistry(t *testing.T) {
	defs := All()
	if len(defs) != 24 {
		t.Fatalf("registry has %d experiments", len(defs))
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if seen[d.ID] {
			t.Fatalf("duplicate id %q", d.ID)
		}
		seen[d.ID] = true
		if _, err := ByID(d.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ByID("figure99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestReportString(t *testing.T) {
	r := &Report{ID: "X", Title: "T", Header: []string{"a", "bb"}}
	r.addRow("1", "2")
	r.addNote("hello %d", 5)
	s := r.String()
	for _, want := range []string{"X — T", "a", "bb", "hello 5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestOptionDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.Runs != 2 || o.fanout != 32 || o.Partitions != 32 {
		t.Fatalf("defaults %+v", o)
	}
	if o.Network == nil || !o.Network.Enabled() {
		t.Fatal("LAN default missing")
	}
	if len(o.Parallelisms) == 0 {
		t.Fatal("parallelism sweep missing")
	}
}

func TestReportMarkdown(t *testing.T) {
	r := &Report{ID: "Table X", Title: "demo", Header: []string{"a", "b"}}
	r.addRow("1", "2")
	r.addNote("caveat")
	md := r.Markdown()
	for _, want := range []string{"### Table X", "| a | b |", "| --- | --- |", "| 1 | 2 |", "> caveat"} {
		if !strings.Contains(md, want) {
			t.Fatalf("Markdown missing %q:\n%s", want, md)
		}
	}
}
