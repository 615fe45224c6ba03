package core

import (
	"fmt"
	"slices"
	"time"

	"crayfish/internal/faults"
	"crayfish/internal/gpu"
	"crayfish/internal/model"
	"crayfish/internal/modelfmt"
	"crayfish/internal/netsim"
	"crayfish/internal/resilience"
	"crayfish/internal/serving"
	"crayfish/internal/serving/embedded"
	"crayfish/internal/serving/external"
	"crayfish/internal/sps"
	"crayfish/internal/telemetry"
)

// ModelSpec selects a pre-trained model for an experiment.
type ModelSpec struct {
	// Name is "ffnn" (the paper's 28K-parameter Fashion-MNIST
	// classifier), "resnet" (the reduced-width benchmark ResNet; see
	// DESIGN.md §1), "resnet50" (full width), or "transformer" (the
	// fused-attention encoder benchmark).
	Name string
	// Seed drives deterministic weight initialisation.
	Seed int64
	// Custom supplies an arbitrary model instead of a named one.
	Custom *model.Model
}

// Build materialises the model.
func (s ModelSpec) Build() (*model.Model, error) {
	if s.Custom != nil {
		return s.Custom, s.Custom.Validate()
	}
	switch s.Name {
	case "", "ffnn":
		return model.NewFFNN(s.Seed), nil
	case "resnet":
		return model.NewResNet(model.BenchResNetConfig(s.Seed)), nil
	case "resnet50":
		return model.NewResNet50(s.Seed), nil
	case "transformer":
		return model.NewTransformer(model.DefaultTransformerConfig(s.Seed)), nil
	default:
		return nil, fmt.Errorf("core: unknown model %q", s.Name)
	}
}

// BuildScorerNet assembles the serving side of the SUT: an embedded
// runtime loading the model through its native storage format, or an
// external serving daemon plus client, with the network profile applied
// to the external serving link (the serving VM hop of §4.2). The returned
// cleanup releases servers and clients and is safe to call once.
func BuildScorerNet(cfg ServingConfig, m *model.Model, mp int, network netsim.Profile) (serving.Scorer, func(), error) {
	return buildScorer(cfg, m, mp, network, nil, nil)
}

// buildScorer is BuildScorerNet for any run. A fault run passes its
// injector (and the registry its client reports resilience.* into): a
// daemon the run launches then has the injector's Crash/Restart events
// bound to its supervisor, and the client dials with retries and a
// circuit breaker, so the pipeline rides the outage out. Embedded
// serving and an already-running daemon (ServingConfig.Addr) build the
// same either way; crash/restart events then fire with no target.
func buildScorer(cfg ServingConfig, m *model.Model, mp int, network netsim.Profile, inj *faults.Injector, reg *telemetry.Registry) (serving.Scorer, func(), error) {
	dev, err := gpu.ByName(cfg.Device)
	if err != nil {
		return nil, nil, err
	}
	if gpu.SupportsInt8(dev) && cfg.Mode != Embedded {
		return nil, nil, fmt.Errorf("core: int8 execution is embedded-only (external tools manage their own precision), got mode %q", cfg.Mode)
	}
	switch cfg.Mode {
	case Embedded:
		rt, err := embedded.New(embedded.Kind(cfg.Tool), dev)
		if err != nil {
			return nil, nil, err
		}
		stored, err := modelfmt.Encode(rt.Format(), m)
		if err != nil {
			return nil, nil, err
		}
		if err := rt.Load(stored); err != nil {
			return nil, nil, err
		}
		return rt, func() { _ = rt.Close() }, nil

	case External:
		kind := external.Kind(cfg.Tool)
		workers := cfg.Workers
		if workers <= 0 {
			workers = mp
		}
		addr := cfg.Addr
		var opts external.ClientOptions
		// The daemon runs under a Supervisor (a Start that pins the bound
		// address); only a fault run ever crashes or restarts it.
		var sup *external.Supervisor
		if addr == "" {
			f, err := external.Format(kind)
			if err != nil {
				return nil, nil, err
			}
			stored, err := modelfmt.Encode(f, m)
			if err != nil {
				return nil, nil, err
			}
			sup, err = external.NewSupervisor(external.Config{
				Kind:       kind,
				ModelBytes: stored,
				Workers:    workers,
				Device:     dev,
				Network:    network,
			})
			if err != nil {
				return nil, nil, err
			}
			addr = sup.Addr()
			if inj != nil {
				inj.Handle(faults.Crash, func(faults.Event) { _ = sup.Crash() })
				inj.Handle(faults.Restart, func(faults.Event) { _ = sup.Restart() })
				opts = external.ClientOptions{
					Retry:   &resilience.Retry{Attempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
					Breaker: &resilience.Breaker{FailureThreshold: 5, Cooldown: 25 * time.Millisecond},
					Metrics: reg,
				}
			}
		}
		client, err := external.DialClientOpts(kind, addr, opts)
		if err != nil {
			if sup != nil {
				_ = sup.Close()
			}
			return nil, nil, err
		}
		cleanup := func() {
			_ = client.Close()
			if sup != nil {
				_ = sup.Close()
			}
		}
		return client, cleanup, nil

	default:
		return nil, nil, fmt.Errorf("core: unknown serving mode %q", cfg.Mode)
	}
}

// MakeTransform builds the scoring operator's logic: decode the
// CrayfishDataBatch, score it (embedded in-process or via a blocking
// external call), attach the predictions, re-encode. Score may scratch
// the inputs it is lent, so the scored record's inputs are the bytes the
// decoder retained; a batch that retains none (JSON off the canonical
// layout, a foreign codec) is scored through a copy.
func MakeTransform(codec BatchCodec, scorer serving.Scorer) sps.Transform {
	if codec == nil {
		codec = JSONCodec{}
	}
	return func(value []byte) ([]byte, error) {
		b, err := codec.Unmarshal(value)
		if err != nil {
			return nil, err
		}
		lent := b.Inputs
		if b.wire.span == nil {
			lent = slices.Clone(lent)
		}
		preds, err := scorer.Score(lent, b.Count)
		if err != nil {
			return nil, err
		}
		b.Predictions = preds
		return codec.Marshal(b)
	}
}

// MakeBatchTransform builds the multi-record scoring path driven by the
// dynamic micro-batcher (JobSpec.BatchTransform): decode every coalesced
// CrayfishDataBatch, score them all through one serving.ScoreBatch call
// (one plan execution embedded, one wire round-trip external), attach
// each record's predictions, re-encode positionally. Any decode or
// marshal failure fails the whole invocation — the batcher then
// isolates the failure by re-running records through the single-record
// fallback, so a poisoned record drops alone.
func MakeBatchTransform(codec BatchCodec, scorer serving.Scorer) sps.BatchTransform {
	if codec == nil {
		codec = JSONCodec{}
	}
	return func(values [][]byte) ([][]byte, error) {
		bs := make([]*DataBatch, len(values))
		inputs := make([][]float32, len(values))
		counts := make([]int, len(values))
		for i, v := range values {
			b, err := codec.Unmarshal(v)
			if err != nil {
				return nil, err
			}
			bs[i] = b
			inputs[i] = b.Inputs
			counts[i] = b.Count
		}
		preds, err := serving.ScoreBatch(scorer, inputs, counts)
		if err != nil {
			return nil, err
		}
		outs := make([][]byte, len(values))
		for i, b := range bs {
			b.Predictions = preds[i]
			out, err := codec.Marshal(b)
			if err != nil {
				return nil, err
			}
			outs[i] = out
		}
		return outs, nil
	}
}
