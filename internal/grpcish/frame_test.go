package grpcish

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
)

// TestFrameUnits pins the framing's length prefix and read chunk:
// internal/broker's wire_test.go restates both as the units of its own
// bounds on ReadFrame, so a change here must be made there too.
func TestFrameUnits(t *testing.T) {
	if frameHeader != 4 || readChunk != 1<<20 {
		t.Fatalf("frameHeader %d, readChunk %d: update internal/broker/wire_test.go to match", frameHeader, readChunk)
	}
}

// TestReadFrameGrowsAsBytesArrive: whichever buffer keep picks, a header
// announcing MaxFrame with one body byte behind it costs ReadFrame at
// most one chunk, and a body past the first chunk arrives intact in a
// slice no longer than the body.
func TestReadFrameGrowsAsBytesArrive(t *testing.T) {
	for _, kept := range []bool{false, true} {
		keep := func(int, byte) bool { return kept }
		var before, after runtime.MemStats
		var scratch []byte
		hdr := append(binary.BigEndian.AppendUint32(nil, MaxFrame), 'x')
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(bytes.NewReader(hdr), &scratch, keep)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("kept %v: a frame with no body was read", kept)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*readChunk {
			t.Errorf("kept %v: a bare header made ReadFrame allocate %d bytes", kept, grew)
		}

		want := make([]byte, 3*readChunk+12345)
		rand.New(rand.NewSource(3)).Read(want)
		frame := append(BeginFrame(nil), want...)
		var conn bytes.Buffer
		if err := WriteFrame(&conn, frame); err != nil {
			t.Fatal(err)
		}
		body, err := ReadFrame(&conn, &scratch, keep)
		if err != nil || !bytes.Equal(body, want) || cap(body) != len(want) {
			t.Fatalf("kept %v: %v, len %d cap %d, want %d", kept, err, len(body), cap(body), len(want))
		}
	}
}
