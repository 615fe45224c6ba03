package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"crayfish/internal/batching"
	"crayfish/internal/broker"
	"crayfish/internal/core"
	"crayfish/internal/grpcish"
	"crayfish/internal/model"
	"crayfish/internal/serving"
	"crayfish/internal/serving/external"
	"crayfish/internal/sps"
	"crayfish/internal/telemetry"
	"crayfish/internal/tensor"
)

// Probes time direct calls into layers the live pipeline cannot
// isolate. Each takes a small time budget and reports a median, so a
// probe pass costs the same whatever the code under it does.

// maxIters caps a probe whose call is so short that the budget would
// buy tens of thousands of them: the median has settled long before,
// and the broker probes keep every record they append.
const maxIters = 2000

// medianNs calls f until the budget is spent (at least minIters times,
// at most maxIters) and returns the median duration of one call in ns.
func medianNs(budget time.Duration, minIters int, f func()) float64 {
	f() // first call pays lazy set-up
	var ns []float64
	start := time.Now()
	for len(ns) < minIters || (time.Since(start) < budget && len(ns) < maxIters) {
		t := time.Now()
		f()
		ns = append(ns, float64(time.Since(t)))
	}
	return median(ns)
}

// loopNs times n back-to-back calls of a function too short to time one
// at a time and returns ns per call.
func loopNs(n int, f func()) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t)) / float64(n)
}

// ffnnRecord is one FFNN-sized JSON DataBatch, the record the paper's
// default pipeline moves.
func ffnnRecord() ([]byte, error) {
	r := rand.New(rand.NewSource(1))
	in := make([]float32, 28*28)
	for i := range in {
		in[i] = r.Float32()
	}
	return core.JSONCodec{}.Marshal(&core.DataBatch{ID: 1, CreatedNanos: 1, Count: 1, Inputs: in})
}

// probes runs every isolated measurement. budget is the time each one
// may spend measuring; noopN is the record count of the engine no-op
// drains.
func probes(budget time.Duration, noopN int) (map[string]float64, error) {
	m := map[string]float64{}
	rec, err := ffnnRecord()
	if err != nil {
		return nil, err
	}
	if err := probeBrokers(m, budget, rec); err != nil {
		return nil, fmt.Errorf("broker probe: %w", err)
	}
	// An engine gets at least half a second to show its first output,
	// however short the run: ray needs most of that under the race
	// detector.
	noopBudget := 2 * budget
	if noopBudget < 500*time.Millisecond {
		noopBudget = 500 * time.Millisecond
	}
	for _, name := range sps.Names() {
		eps, err := probeEngineNoop(name, rec, noopN, noopBudget)
		if err != nil {
			return nil, fmt.Errorf("engine probe %s: %w", name, err)
		}
		m["sps."+name+".noop_eps"] = eps
	}
	if err := probeBatcher(m, budget); err != nil {
		return nil, fmt.Errorf("batcher probe: %w", err)
	}
	if err := probeGrpcish(m, budget); err != nil {
		return nil, fmt.Errorf("grpcish probe: %w", err)
	}
	if err := probeExternal(m, budget); err != nil {
		return nil, fmt.Errorf("external serving probe: %w", err)
	}
	if err := probeModels(m, budget); err != nil {
		return nil, fmt.Errorf("model probe: %w", err)
	}
	probeTensor(m, budget)
	probeTelemetry(m)
	return m, nil
}

// roundTrip is a 16-record produce plus the fetch that reads them back,
// per record, on a fresh single-partition topic.
func roundTrip(t broker.Transport, topic string, budget time.Duration, rec []byte) (float64, error) {
	if err := t.CreateTopic(topic, 1); err != nil {
		return 0, err
	}
	const n = 16
	recs := make([]broker.Record, n)
	var callErr error
	ns := medianNs(budget, 20, func() {
		for i := range recs {
			recs[i] = broker.Record{Value: rec}
		}
		base, err := t.Produce(topic, 0, recs)
		if err != nil {
			callErr = err
			return
		}
		got, err := t.Fetch(topic, 0, base, n)
		if err != nil {
			callErr = err
			return
		}
		if len(got) != n {
			callErr = fmt.Errorf("fetched %d of %d records at offset %d", len(got), n, base)
		}
	})
	return ns / n / 1e3, callErr
}

func probeBrokers(m map[string]float64, budget time.Duration, rec []byte) error {
	b := broker.New(broker.DefaultConfig())
	defer b.Close()
	us, err := roundTrip(b, "probe-inproc", budget, rec)
	if err != nil {
		return err
	}
	m["broker.inproc.rt_us_per_rec"] = us

	srv, err := broker.Serve(b, "127.0.0.1:0")
	if err != nil {
		return err
	}
	client, err := broker.Dial(srv.Addr())
	if err != nil {
		_ = srv.Close() // the dial error is the one to report
		return err
	}
	us, err = roundTrip(client, "probe-tcp", budget, rec)
	cerr := client.Close()
	serr := srv.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	if serr != nil {
		return serr
	}
	m["broker.tcp.rt_us_per_rec"] = us

	cluster, err := broker.NewCluster(broker.ClusterConfig{Nodes: 3, ReplicationFactor: 3, Broker: broker.DefaultConfig()})
	if err != nil {
		return err
	}
	defer cluster.Close()
	cc, err := cluster.Client(nil)
	if err != nil {
		return err
	}
	us, err = roundTrip(cc, "probe-cluster", budget, rec)
	if err != nil {
		return err
	}
	m["broker.cluster3.rt_us_per_rec"] = us
	return nil
}

// probeEngineNoop is the §4.3 harness without codec or scorer: n
// prefilled FFNN-sized records through the engine with an identity
// transform at mp 1, timed from job start until the last one is in the
// output topic, or until the budget runs out: an engine too slow to
// finish reports the rate it reached, so the probe's cost is bounded.
func probeEngineNoop(engine string, rec []byte, n int, budget time.Duration) (float64, error) {
	b := broker.New(broker.DefaultConfig())
	defer b.Close()
	for _, topic := range []string{core.InputTopic, core.OutputTopic} {
		if err := b.CreateTopic(topic, partitions); err != nil {
			return 0, err
		}
	}
	batch := make([]broker.Record, 64)
	for sent := 0; sent < n; sent += len(batch) {
		if n-sent < len(batch) {
			batch = batch[:n-sent]
		}
		for i := range batch {
			batch[i] = broker.Record{Value: rec}
		}
		if _, err := b.Produce(core.InputTopic, (sent/64)%partitions, batch); err != nil {
			return 0, err
		}
	}
	p, err := sps.New(engine)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	job, err := p.Run(sps.JobSpec{
		Transport:   b,
		InputTopic:  core.InputTopic,
		OutputTopic: core.OutputTopic,
		Group:       "probe-" + engine,
		Transform:   func(v []byte) ([]byte, error) { return v, nil },
		Parallelism: sps.Parallelism{Default: 1},
	})
	if err != nil {
		return 0, err
	}
	deadline := start.Add(budget)
	done := 0
	for done < n && time.Now().Before(deadline) {
		done = 0
		for part := 0; part < partitions; part++ {
			end, err := b.EndOffset(core.OutputTopic, part)
			if err != nil {
				_ = job.Stop() // the offset error is the one to report
				return 0, err
			}
			done += int(end)
		}
		if done < n {
			time.Sleep(200 * time.Microsecond)
		}
	}
	elapsed := time.Since(start)
	if err := job.Stop(); err != nil {
		return 0, err
	}
	if done == 0 {
		return 0, fmt.Errorf("no record reached the output topic in %v", budget)
	}
	return float64(done) / elapsed.Seconds(), nil
}

// probeBatcher times Batcher.Do with a no-op batch function and two
// callers at MaxBatch 2, so every batch is cut by size and the figure is
// the coordination cost alone. The linger only matters at the end: it
// releases the partner if it is parked alone when the probe stops.
func probeBatcher(m map[string]float64, budget time.Duration) error {
	b, err := batching.New(batching.Config{
		Policy: batching.Policy{MaxBatch: 2, Linger: 20 * time.Millisecond},
		Batch:  func(values [][]byte) ([][]byte, error) { return values, nil },
	})
	if err != nil {
		return err
	}
	value := []byte("x")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the partner that completes every batch
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := b.Do(value); err != nil {
				return
			}
		}
	}()
	var doErr error
	ns := medianNs(budget, 100, func() {
		if _, err := b.Do(value); err != nil {
			doErr = err
		}
	})
	close(stop)
	wg.Wait()
	b.Close()
	m["batching.do_overhead_us"] = ns / 1e3
	return doErr
}

// probeGrpcish is one echo call of an encoded single FFNN point over
// one connection.
func probeGrpcish(m map[string]float64, budget time.Duration) error {
	srv := grpcish.NewServer()
	srv.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		return err
	}
	client, err := grpcish.Dial(srv.Addr())
	if err != nil {
		_ = srv.Close() // the dial error is the one to report
		return err
	}
	payload := serving.EncodeBatch(make([]float32, 28*28), 1)
	var callErr error
	ns := medianNs(budget, 100, func() {
		if _, err := client.Call("echo", payload); err != nil {
			callErr = err
		}
	})
	cerr := client.Close()
	serr := srv.Close()
	m["grpcish.roundtrip_us"] = ns / 1e3
	switch {
	case callErr != nil:
		return callErr
	case cerr != nil:
		return cerr
	}
	return serr
}

// probeExternal scores one FFNN point per call against a tf-serving
// daemon that reports to a registry: the daemon's own time per request,
// and what the call costs beyond it on the client side and the wire.
// These are probes rather than figures from the live ffnn-external run
// so that they exist, and move, on every workload.
func probeExternal(m map[string]float64, budget time.Duration) error {
	reg := telemetry.New()
	srv, err := external.Start(external.Config{Kind: external.TFServing, Model: model.NewFFNN(1), Workers: 1, Metrics: reg})
	if err != nil {
		return err
	}
	client, err := external.DialClient(external.TFServing, srv.Addr())
	if err != nil {
		_ = srv.Close() // the dial error is the one to report
		return err
	}
	in := randInputs(28 * 28)
	scratch := make([]float32, len(in))
	var callErr error
	var clientNs float64
	calls := 0
	for start := time.Now(); calls < 100 || (time.Since(start) < budget && calls < maxIters); calls++ {
		copy(scratch, in) // a scorer may use its input as scratch
		t := time.Now()
		if _, err := client.Score(scratch, 1); err != nil {
			callErr = err
		}
		clientNs += float64(time.Since(t))
	}
	cerr := client.Close()
	serr := srv.Close()
	server := reg.Snapshot().Histograms["serving.server.latency_ns"]
	m["serving.server_us_per_call"] = ratio(float64(server.Sum), float64(server.Count)) / 1e3
	m["grpcish.wire_us_per_call"] = clientNs/float64(calls)/1e3 - m["serving.server_us_per_call"]
	switch {
	case callErr != nil:
		return callErr
	case cerr != nil:
		return cerr
	}
	return serr
}

// probeModels times the compiled plan against the allocating
// interpreter (ROADMAP 1(e)): the same model, hints and input.
func probeModels(m map[string]float64, budget time.Duration) error {
	planUs := func(mod *model.Model, hints model.ExecHints, n int) (float64, error) {
		plan, err := mod.Compile(hints)
		if err != nil {
			return 0, err
		}
		defer plan.Close()
		in := randInputs(n * mod.InputLen())
		scratch := make([]float32, len(in))
		out := make([]float32, n*plan.OutputLen())
		var ferr error
		ns := medianNs(budget, 20, func() {
			copy(scratch, in) // the plan may use its input as scratch
			if err := plan.Forward(scratch, n, out); err != nil {
				ferr = err
			}
		})
		return ns / 1e3, ferr
	}
	ffnn := model.NewFFNN(1)
	var err error
	if m["model.ffnn.plan_us_n1"], err = planUs(ffnn, model.ExecHints{}, 1); err != nil {
		return err
	}
	if m["model.ffnn.plan_us_n16"], err = planUs(ffnn, model.ExecHints{}, 16); err != nil {
		return err
	}
	resnet := model.NewResNet(model.BenchResNetConfig(1))
	if m["model.resnet.plan_us"], err = planUs(resnet, model.ExecHints{}, 1); err != nil {
		return err
	}
	in := randInputs(resnet.InputLen())
	var ferr error
	ns := medianNs(budget, 20, func() {
		x, err := resnet.BatchInput(append([]float32(nil), in...), 1)
		if err != nil {
			ferr = err
			return
		}
		if _, err := resnet.ForwardWith(x, model.ExecHints{}); err != nil {
			ferr = err
		}
	})
	m["model.resnet.interp_us"] = ns / 1e3
	return ferr
}

func randInputs(n int) []float32 {
	r := rand.New(rand.NewSource(1))
	out := make([]float32, n)
	for i := range out {
		out[i] = r.Float32()
	}
	return out
}

func probeTensor(m map[string]float64, budget time.Duration) {
	a, _ := tensor.FromSlice(randInputs(128*128), 128, 128)
	b, _ := tensor.FromSlice(randInputs(128*128), 128, 128)
	dst := tensor.New(128, 128)
	m["tensor.matmul128_us"] = medianNs(budget, 20, func() { tensor.MatMulInto(dst, a, b) }) / 1e3

	// The shape of BenchmarkConv2DInto in internal/tensor.
	in, _ := tensor.FromSlice(randInputs(8*28*28), 1, 8, 28, 28)
	k, _ := tensor.FromSlice(randInputs(16*8*3*3), 16, 8, 3, 3)
	oh, ow := tensor.Conv2DOutDims(in, k, 1, 1)
	out := tensor.New(1, 16, oh, ow)
	col := make([]float32, tensor.Conv2DScratchLen(in, k, 1, 1))
	m["tensor.conv_us"] = medianNs(budget, 20, func() { tensor.Conv2DInto(out, in, k, 1, 1, col) }) / 1e3
}

// probeTelemetry guards the instrumentation cost contract: a counter
// plus a histogram record on live handles, and the same calls on the
// nil handles a disabled registry hands out.
func probeTelemetry(m map[string]float64) {
	const n = 1 << 20
	reg := telemetry.New()
	c, h := reg.Counter("probe.counter"), reg.Histogram("probe.hist")
	v := int64(1)
	m["telemetry.record_ns"] = loopNs(n, func() { c.Inc(); h.Record(v); v += 37 })
	var off *telemetry.Registry
	nc, nh := off.Counter("probe.counter"), off.Histogram("probe.hist")
	m["telemetry.disabled_ns"] = loopNs(n, func() { nc.Inc(); nh.Record(v) })
}
