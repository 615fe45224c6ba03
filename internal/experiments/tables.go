package experiments

import (
	"fmt"
	"time"

	"crayfish/internal/core"
	"crayfish/internal/model"
	"crayfish/internal/modelfmt"
)

// table2ModelSizes reproduces Table 2: the two models' characteristics and
// their serialized size in each storage format.
func table2ModelSizes() (*Report, error) {
	r := &Report{
		ID:     "Table 2",
		Title:  "Pre-trained model characteristics and stored sizes",
		Header: []string{"model", "input", "output", "params", "onnx", "savedmodel", "torch", "h5"},
	}
	models := []*model.Model{model.NewFFNN(1), model.NewResNet(model.BenchResNetConfig(1))}
	for _, m := range models {
		row := []string{
			m.Name,
			fmt.Sprint(m.InputShape),
			fmt.Sprintf("%dx1", m.OutputSize),
			fmtCount(m.ParamCount()),
		}
		for _, f := range []modelfmt.Format{modelfmt.ONNX, modelfmt.SavedModel, modelfmt.Torch, modelfmt.H5} {
			data, err := modelfmt.Encode(f, m)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtBytes(len(data)))
		}
		r.addRow(row...)
	}
	r.addNote("paper: FFNN onnx 113KB / savedmodel 508KB / torch 115KB / h5 133KB; ResNet50 formats converge to weight size")
	r.addNote("the benchmark ResNet is the reduced-width substitution from DESIGN.md §1; run with model resnet50 for the 23M-parameter network")
	return r, nil
}

func fmtCount(n int) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.0fK", float64(n)/1e3)
	default:
		return fmt.Sprint(n)
	}
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.0fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// table4ServingThroughput reproduces Table 4: sustainable throughput per
// serving tool with Apache Flink as the host SPS (bsz=1, mp=1).
func table4ServingThroughput(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Table 4",
		Title:  "Serving-tool throughput on Apache Flink (FFNN + ResNet + Transformer, bsz=1, mp=1)",
		Header: []string{"model", "server", "mode", "throughput (events/s)"},
	}
	type entry struct {
		model string
		tool  string
		mode  string
	}
	entries := []entry{
		{"ffnn", "dl4j", "embedded"},
		{"ffnn", "onnx", "embedded"},
		{"ffnn", "savedmodel", "embedded"},
		{"ffnn", "torchserve", "external"},
		{"ffnn", "tf-serving", "external"},
		{"resnet", "onnx", "embedded"},
		{"resnet", "torchserve", "external"},
		{"resnet", "tf-serving", "external"},
		{"transformer", "onnx", "embedded"},
		{"transformer", "tf-serving", "external"},
	}
	for _, e := range entries {
		w := o.ffnnWorkload()
		d := o.scaled(3 * time.Second)
		switch e.model {
		case "resnet":
			w = o.resnetWorkload()
			d = o.scaled(4 * time.Second)
		case "transformer":
			w = o.transformerWorkload()
		}
		serving := embeddedTool(e.tool)
		if e.mode == "external" {
			serving = externalTool(e.tool)
		}
		cfg := o.baseConfig("flink", serving, w, e.model, 1)
		tput, err := o.saturate(cfg, d)
		if err != nil {
			return nil, fmt.Errorf("table4 %s/%s: %w", e.model, e.tool, err)
		}
		o.logf("table4 %s/%s: %.1f events/s", e.model, e.tool, tput)
		r.addRow(e.model, e.tool, e.mode, fmtRate(tput))
	}
	r.addNote("paper shape: embedded > external for FFNN; ONNX > SavedModel > DL4J; TF-Serving ≈ 3× TorchServe; ResNet collapses every tool to a few events/s with ONNX ≈ TF-Serving; the transformer (fused attention kernels) sits between the two")
	return r, nil
}

// table5SPSThroughput reproduces Table 5: FFNN throughput across the four
// stream processors with ONNX (embedded) and TF-Serving (external).
func table5SPSThroughput(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Table 5",
		Title:  "Stream-processor throughput comparison (FFNN, bsz=1, mp=1)",
		Header: []string{"engine", "onnx (e)", "tf-serving (x)"},
	}
	for _, engine := range []string{"flink", "kafka-streams", "spark-ss", "ray"} {
		row := []string{engine}
		for _, serving := range []core.ServingConfig{embeddedTool("onnx"), externalTool("tf-serving")} {
			cfg := o.baseConfig(engine, serving, o.ffnnWorkload(), "ffnn", 1)
			tput, err := o.saturate(cfg, o.scaled(3*time.Second))
			if err != nil {
				return nil, fmt.Errorf("table5 %s/%s: %w", engine, serving.Tool, err)
			}
			o.logf("table5 %s/%s: %.1f events/s", engine, serving.Tool, tput)
			row = append(row, fmtRate(tput))
		}
		r.addRow(row...)
	}
	r.addNote("paper shape: Spark SS highest (micro-batching), Kafka Streams > Flink, Ray lowest; Spark SS nearly erases the embedded-vs-external gap")
	return r, nil
}
