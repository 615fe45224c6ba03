package grpcish

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

const (
	// frameHeader is the uint32 big-endian length prefix of a frame; the
	// body that follows is the protocol's own business.
	frameHeader = 4
	// MaxFrame bounds one frame's body: one 50 MB record (the
	// maxRequestSize the paper raises Kafka to) with room to spare.
	MaxFrame = 96 << 20
	// readChunk is the most ReadFrame allocates beyond twice the bytes
	// of a body that have arrived, so a header alone cannot make a peer
	// commit a frame's worth of memory.
	readChunk = 1 << 20
	// maxScratch is the largest per-connection scratch kept from one
	// frame to the next.
	maxScratch = 1 << 20
)

// ErrFrameTooLarge is WriteFrame's refusal of a frame whose body exceeds
// MaxFrame. Nothing has been sent: it is the caller's error, not a
// transport fault.
var ErrFrameTooLarge = fmt.Errorf("grpcish: frame exceeds %d bytes", MaxFrame)

// BeginFrame resets b to a frame whose length is not yet stamped; the
// caller appends the body and WriteFrame stamps the length.
func BeginFrame(b []byte) []byte {
	return append(b[:0], 0, 0, 0, 0)
}

// WriteFrame stamps the length of a frame built from BeginFrame and
// writes it in one call.
func WriteFrame(w io.Writer, frame []byte) error {
	n := len(frame) - frameHeader
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one frame and returns its body. keep decides, from the
// body's length and its first byte, whether the body gets a buffer of its
// own, which the caller may keep; every other body is read into *scratch
// and is valid only until the scratch is next used. A scratch that a
// large frame grew past maxScratch is dropped first. Either way the body
// grows as its bytes arrive rather than by what the header promises.
func ReadFrame(r io.Reader, scratch *[]byte, keep func(n int, first byte) bool) ([]byte, error) {
	if cap(*scratch) > maxScratch {
		*scratch = nil
	}
	hdr := slices.Grow((*scratch)[:0], frameHeader+1)[:frameHeader+1]
	*scratch = hdr
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	size, first := binary.BigEndian.Uint32(hdr), hdr[frameHeader]
	if size < 1 || size > MaxFrame {
		return nil, fmt.Errorf("grpcish: frame of %d bytes outside [1, %d]", size, MaxFrame)
	}
	n := int(size)
	if keep(n, first) {
		//lint:allow hotpathalloc the one allocation of a kept body, which the caller owns
		return readBody(r, n, append(make([]byte, 0, min(n, readChunk)), first))
	}
	hdr[0] = first
	body, err := readBody(r, n, hdr[:1])
	if err != nil {
		return nil, err
	}
	*scratch = body
	return body, nil
}

// readBody reads buf up to n bytes, growing it as the bytes arrive
// rather than trusting n up front.
func readBody(r io.Reader, n int, buf []byte) ([]byte, error) {
	for len(buf) < n {
		next := min(n, max(2*len(buf), readChunk))
		if cap(buf) < next {
			//lint:allow hotpathalloc growth of a body as its bytes arrive
			grown := make([]byte, len(buf), next)
			copy(grown, buf)
			buf = grown
		}
		if _, err := io.ReadFull(r, buf[len(buf):next]); err != nil {
			return nil, err
		}
		buf = buf[:next]
	}
	return buf, nil
}
