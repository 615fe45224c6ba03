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
	// Inputs holds Count data points flattened row-major. In a batch a
	// codec decoded it is Score's scratch (serving.Scorer lends it): the
	// encoders write such a batch's inputs from the record bytes it was
	// decoded from, so edits made in place are not seen — assign a new
	// slice to re-encode different inputs.
	Inputs []float32 `json:"inputs"`
	// Predictions holds the scoring operator's output, empty upstream.
	Predictions []float32 `json:"predictions,omitempty"`

	// wire is set by the decoders and read by the encoders; it is no
	// part of the batch's value.
	wire wireInputs
}

// wireInputs is the verbatim encoding of Inputs in the record a batch
// was decoded from. It borrows the record's bytes, which every caller
// keeps unchanged for the life of the batch (docs/PERFORMANCE.md
// "Buffer ownership rules"). An encoder copies span only while Inputs
// is still the slice that was decoded and span is its own codec's.
type wireInputs struct {
	span  []byte   // JSON: the `[…]` array; binary: the little-endian floats
	json  bool     // which of the two span is
	first *float32 // &Inputs[0] as decoded
	n     int      // len(Inputs) as decoded, never 0 when span is set
}

// wireSpan returns the retained encoding of b.Inputs in the asked
// codec's format, or nil if the encoder has to format Inputs itself.
func (b *DataBatch) wireSpan(json bool) []byte {
	w := &b.wire
	if w.span == nil || w.json != json || len(b.Inputs) != w.n || &b.Inputs[0] != w.first {
		return nil
	}
	return w.span
}

// retainInputs remembers span as the encoding b.Inputs was decoded from.
func (b *DataBatch) retainInputs(span []byte, json bool) {
	if len(b.Inputs) > 0 {
		b.wire = wireInputs{span: span, json: json, first: &b.Inputs[0], n: len(b.Inputs)}
	}
}

// Created returns the creation timestamp as a time.Time.
func (b *DataBatch) Created() time.Time { return time.Unix(0, b.CreatedNanos) }

// BatchCodec is the serialisation used between pipeline components.
type BatchCodec interface {
	Name() string
	Marshal(*DataBatch) ([]byte, error)
	Unmarshal([]byte) (*DataBatch, error)
}

// stamp reads from a record the two fields the measuring side needs.
// The output consumer and the standalone baseline stand outside the SUT
// (§3.5) on the SUT's cores, so they convert none of a record's floats:
// what is accepted, what is rejected and every error are nevertheless
// codec.Unmarshal's. Any codec but the two below — a wrapper that wants
// to see the whole batch included — gets codec.Unmarshal itself.
func stamp(codec BatchCodec, data []byte) (id, createdNanos int64, err error) {
	switch codec.(type) {
	case JSONCodec:
		if id, createdNanos, ok := stampJSON(data); ok {
			return id, createdNanos, nil
		}
	case BinaryCodec:
		var hdr DataBatch
		if _, _, err := binaryHeader(data, &hdr); err != nil {
			return 0, 0, err
		}
		return hdr.ID, hdr.CreatedNanos, nil
	}
	b, err := codec.Unmarshal(data)
	if err != nil {
		return 0, 0, err
	}
	return b.ID, b.CreatedNanos, nil
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
	if span := b.wireSpan(false); span != nil {
		out = append(out, span...)
	} else {
		for _, v := range b.Inputs {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
	}
	for _, v := range b.Predictions {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out, nil
}

// Unmarshal implements BatchCodec. The batch borrows data as
// UnmarshalJSONBatch's does.
func (BinaryCodec) Unmarshal(data []byte) (*DataBatch, error) {
	b := new(DataBatch)
	nIn, nOut, err := binaryHeader(data, b)
	if err != nil {
		return nil, err
	}
	b.Inputs = make([]float32, nIn)
	off := 28
	for i := range b.Inputs {
		b.Inputs[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	b.retainInputs(data[28:off], false)
	if nOut > 0 {
		b.Predictions = make([]float32, nOut)
		for i := range b.Predictions {
			b.Predictions[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
	}
	return b, nil
}

// binaryHeader reads the 28-byte header of a binary record into b and
// returns the two float counts, having checked them against len(data).
func binaryHeader(data []byte, b *DataBatch) (nIn, nOut int, err error) {
	if len(data) < 28 {
		return 0, 0, fmt.Errorf("core: binary batch too short (%d bytes)", len(data))
	}
	b.ID = int64(binary.LittleEndian.Uint64(data[0:]))
	b.CreatedNanos = int64(binary.LittleEndian.Uint64(data[8:]))
	b.Count = int(binary.LittleEndian.Uint32(data[16:]))
	nIn = int(binary.LittleEndian.Uint32(data[20:]))
	nOut = int(binary.LittleEndian.Uint32(data[24:]))
	if b.Count <= 0 || nIn < 0 || nOut < 0 || len(data) != 28+4*(nIn+nOut) {
		return 0, 0, fmt.Errorf("core: binary batch malformed (count %d, in %d, out %d, %d bytes)", b.Count, nIn, nOut, len(data))
	}
	return nIn, nOut, nil
}
