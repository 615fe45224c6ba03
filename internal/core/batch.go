// Package core implements the Crayfish framework itself (§3): the
// CrayfishDataBatch unit of computation, the input-producer component with
// constant-rate and periodic-burst workloads, the output consumer that
// extracts end-to-end latencies from broker append timestamps, the metrics
// analyzer, and the experiment runner that wires a broker, a stream
// processor, and a serving tool into a system under test.
//
// Concurrency contract: a Runner is safe for sequential runs only — each
// Run call owns its producer, consumer, and (by default) broker, so
// concurrent runs must use separate Runner values or a shared remote
// transport. InputProducer.Run and OutputConsumer.Run are single-goroutine
// loops; their Metrics field must be set before Run starts. Results and
// Metrics values are plain data, safe to read from any goroutine once
// returned. Live instrumentation (Config.Telemetry) is safe for
// concurrent recording from every pipeline stage; see
// docs/OBSERVABILITY.md for the metric contract.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// DataBatch is the CrayfishDataBatch: a batch of data points plus the
// creation timestamp used for end-to-end latency computation (§3.1). It is
// JSON-serialised through the whole pipeline, as in the paper; a compact
// binary codec exists solely for the serialisation ablation.
type DataBatch struct {
	// ID identifies the batch for dedup and loss accounting.
	ID int64 `json:"id"`
	// CreatedNanos is the producer-side start timestamp (§3.3 step 1).
	CreatedNanos int64 `json:"created_ns"`
	// Count is the number of data points (bsz).
	Count int `json:"count"`
	// Inputs holds Count data points flattened row-major.
	Inputs []float32 `json:"inputs"`
	// Predictions holds the scoring operator's output, empty upstream.
	Predictions []float32 `json:"predictions,omitempty"`
}

// Created returns the creation timestamp as a time.Time.
func (b *DataBatch) Created() time.Time { return time.Unix(0, b.CreatedNanos) }

// BatchCodec is the serialisation used between pipeline components.
type BatchCodec interface {
	Name() string
	Marshal(*DataBatch) ([]byte, error)
	Unmarshal([]byte) (*DataBatch, error)
}

// JSONCodec is the paper's default (§3.1: "JSON serialization throughout
// the data pipeline for simplicity and flexibility").
type JSONCodec struct{}

// Name implements BatchCodec.
func (JSONCodec) Name() string { return "json" }

// Marshal implements BatchCodec.
func (JSONCodec) Marshal(b *DataBatch) ([]byte, error) { return MarshalJSONBatch(b) }

// Unmarshal implements BatchCodec.
func (JSONCodec) Unmarshal(data []byte) (*DataBatch, error) { return UnmarshalJSONBatch(data) }

// BinaryCodec is the compact little-endian codec used by the
// serialisation-overhead ablation bench.
type BinaryCodec struct{}

// Name implements BatchCodec.
func (BinaryCodec) Name() string { return "binary" }

// Marshal implements BatchCodec.
func (BinaryCodec) Marshal(b *DataBatch) ([]byte, error) {
	out := make([]byte, 0, 28+4*len(b.Inputs)+4*len(b.Predictions))
	var hdr [28]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(b.ID))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(b.CreatedNanos))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(b.Count))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(b.Inputs)))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(b.Predictions)))
	out = append(out, hdr[:]...)
	for _, v := range b.Inputs {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	for _, v := range b.Predictions {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out, nil
}

// Unmarshal implements BatchCodec.
func (BinaryCodec) Unmarshal(data []byte) (*DataBatch, error) {
	if len(data) < 28 {
		return nil, fmt.Errorf("core: binary batch too short (%d bytes)", len(data))
	}
	b := &DataBatch{
		ID:           int64(binary.LittleEndian.Uint64(data[0:])),
		CreatedNanos: int64(binary.LittleEndian.Uint64(data[8:])),
		Count:        int(binary.LittleEndian.Uint32(data[16:])),
	}
	nIn := int(binary.LittleEndian.Uint32(data[20:]))
	nOut := int(binary.LittleEndian.Uint32(data[24:]))
	if b.Count <= 0 || nIn < 0 || nOut < 0 || len(data) != 28+4*(nIn+nOut) {
		return nil, fmt.Errorf("core: binary batch malformed (count %d, in %d, out %d, %d bytes)", b.Count, nIn, nOut, len(data))
	}
	b.Inputs = make([]float32, nIn)
	off := 28
	for i := range b.Inputs {
		b.Inputs[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	if nOut > 0 {
		b.Predictions = make([]float32, nOut)
		for i := range b.Predictions {
			b.Predictions[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
	}
	return b, nil
}
