package broker

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// The frame codec of the wire protocol whose grammar heads server.go:
// framing (readFrame, writeFrame), the append-style encoders and the
// slicing decoders of the four binary frames, and the JSON control
// frame. Encoders append into the caller's buffer and decoders slice
// the payload they are given, so a frame without records costs no
// allocation on either side once a connection's scratch has warmed up.

const (
	tagControl byte = 'C'
	tagProduce byte = 'P'
	tagFetch   byte = 'F'
	tagAwait   byte = 'W'
	tagAck     byte = 'A'
	tagRecords byte = 'R'
)

const (
	// frameHeader is the uint32 length prefix; the length counts the
	// tag and the payload.
	frameHeader = 4
	// maxFrameSize bounds a single wire frame: one 50 MB record (the
	// MaxRequestSize the paper raises Kafka to) with room to spare.
	maxFrameSize = 96 << 20
	// readChunk is the most readFrame allocates beyond twice the bytes
	// of a body that have actually arrived, so a header alone cannot
	// make a peer commit a frame's worth of memory.
	readChunk = 1 << 20
	// maxScratch is the largest per-connection scratch kept between
	// frames; one oversized frame does not pin its size for the life of
	// the connection.
	maxScratch = 1 << 20
	// minRecordWire is the shortest encoding of a record: two one-byte
	// varints, two timestamps, two zero lengths. Decoders divide the
	// bytes remaining by it to refuse an impossible record count before
	// sizing anything by that count.
	minRecordWire = 1 + 1 + 8 + 8 + 1 + 1
	// maxRecordOverhead is the longest encoding of everything in a
	// record but the key and value bytes.
	maxRecordOverhead = 4*binary.MaxVarintLen64 + 16
	// minFetchWire is the shortest encoding of one FetchRequest.
	minFetchWire = 2
	// zeroTimeNanos is the wire spelling of the zero time.Time, whose
	// UnixNano is undefined: it decodes back to a time that IsZero.
	zeroTimeNanos = math.MinInt64
)

var (
	errMalformedFrame = errors.New("broker: malformed frame")
	errFrameTooLarge  = fmt.Errorf("%w: frame exceeds %d bytes", ErrMessageTooLarge, maxFrameSize)
)

// readFrame reads one frame and returns its tag and payload. The
// payload of a produce or records frame long enough to hold a record
// gets a body of its own, which the decoded records' keys and values
// alias — that body is what the server's log and Consumer.Poll's
// callers keep. Every other payload is read into *scratch and is valid
// only until the scratch is next used.
func readFrame(r io.Reader, scratch *[]byte) (byte, []byte, error) {
	hdr := slices.Grow((*scratch)[:0], frameHeader+1)[:frameHeader+1]
	*scratch = hdr
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	size, tag := binary.BigEndian.Uint32(hdr), hdr[frameHeader]
	if size < 1 || size > maxFrameSize {
		return 0, nil, fmt.Errorf("broker: frame of %d bytes outside [1, %d]", size, maxFrameSize)
	}
	n := int(size) - 1
	if (tag == tagProduce || tag == tagRecords) && n >= minRecordWire {
		payload, err := readBody(r, n, nil)
		return tag, payload, err
	}
	payload, err := readBody(r, n, hdr)
	if err != nil {
		return 0, nil, err
	}
	*scratch = payload
	return tag, payload, nil
}

// readBody reads n bytes into buf[:0], growing it as the bytes arrive
// rather than trusting n up front. A body of at most readChunk bytes
// read into a nil buf is one exact-size allocation.
func readBody(r io.Reader, n int, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		next := min(n, max(2*len(buf), readChunk))
		if cap(buf) < next {
			//lint:allow hotpathalloc the one allocation per records frame, which the decoded keys and values alias
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

// beginFrame resets b to a frame with an unstamped length and the given
// tag; the encoders append the payload and writeFrame stamps the length.
func beginFrame(b []byte, tag byte) []byte {
	return append(b[:0], 0, 0, 0, 0, tag)
}

// writeFrame stamps the length of a frame built by beginFrame and
// writes it in one call.
func writeFrame(w io.Writer, frame []byte) error {
	n := len(frame) - frameHeader
	if n > maxFrameSize {
		return errFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// trimScratch drops a scratch that one large frame grew past maxScratch.
func trimScratch(b []byte) []byte {
	if cap(b) > maxScratch {
		return nil
	}
	return b
}

// ---- encoders ----

// appendInt writes a signed integer as the uvarint of its two's
// complement: one byte for the small non-negative values that occur,
// ten for a negative one, which still reaches the broker to be refused
// there as it is in process.
func appendInt(b []byte, v int64) []byte { return binary.AppendUvarint(b, uint64(v)) }

func appendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendTime(b []byte, t time.Time) []byte {
	ns := int64(zeroTimeNanos)
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	return binary.BigEndian.AppendUint64(b, uint64(ns))
}

// appendRecords writes a record count and the records.
func appendRecords(b []byte, recs []Record) []byte {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		b = appendInt(b, int64(r.Partition))
		b = appendInt(b, r.Offset)
		b = appendTime(b, r.Timestamp)
		b = appendTime(b, r.AppendTime)
		b = appendBytes(b, r.Key)
		b = appendBytes(b, r.Value)
	}
	return b
}

// recordsWireMax bounds the encoded size of recs from above.
func recordsWireMax(recs []Record) int {
	n := binary.MaxVarintLen64
	for i := range recs {
		n += maxRecordOverhead + len(recs[i].Key) + len(recs[i].Value)
	}
	return n
}

// appendProduceFrame builds the produce request.
func appendProduceFrame(b []byte, topic string, partition int, recs []Record) []byte {
	b = slices.Grow(beginFrame(b, tagProduce), 2*binary.MaxVarintLen64+len(topic)+recordsWireMax(recs))
	b = appendString(b, topic)
	b = appendInt(b, int64(partition))
	return appendRecords(b, recs)
}

// appendFetchFrame builds the fetch request; a single-partition Fetch
// is a fetch of one position.
func appendFetchFrame(b []byte, topic string, reqs []FetchRequest, maxTotal int) []byte {
	b = appendString(beginFrame(b, tagFetch), topic)
	b = appendInt(b, int64(maxTotal))
	return appendPositions(b, reqs)
}

// appendAwaitFrame builds the await request: park for up to waitMs
// milliseconds, until a record is readable at one of the positions.
func appendAwaitFrame(b []byte, topic string, waitMs int64, positions []FetchRequest) []byte {
	b = appendString(beginFrame(b, tagAwait), topic)
	b = appendInt(b, waitMs)
	return appendPositions(b, positions)
}

// appendPositions writes a position count and the positions.
func appendPositions(b []byte, reqs []FetchRequest) []byte {
	b = binary.AppendUvarint(b, uint64(len(reqs)))
	for _, req := range reqs {
		b = appendInt(b, int64(req.Partition))
		b = appendInt(b, req.Offset)
	}
	return b
}

// appendAckFrame builds the produce response, the base offset, and the
// await response, a zero.
func appendAckFrame(b []byte, offset int64) []byte {
	return appendInt(beginFrame(b, tagAck), offset)
}

// appendRecordsFrame builds the response to a fetch (hw and epoch zero)
// or a replica fetch. Records that would take the frame past
// maxFrameSize are left off — a fetch promises at most max records, and
// the reader asks again from where these end — but the first always goes.
func appendRecordsFrame(b []byte, hw int64, epoch int, recs []Record) []byte {
	size := 1 + 2*binary.MaxVarintLen64 + recordsWireMax(recs)
	for size > maxFrameSize && len(recs) > 1 {
		last := &recs[len(recs)-1]
		size -= maxRecordOverhead + len(last.Key) + len(last.Value)
		recs = recs[:len(recs)-1]
	}
	b = slices.Grow(beginFrame(b, tagRecords), size)
	b = appendInt(b, hw)
	b = appendInt(b, int64(epoch))
	return appendRecords(b, recs)
}

// appendControlFrame builds a control frame: v is a *wireRequest or a
// *wireResponse, carried as JSON.
func appendControlFrame(b []byte, v any) ([]byte, error) {
	doc, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(beginFrame(b, tagControl), doc...), nil
}

// ---- decoders ----

// wireReader consumes a payload front to back. The first malformed
// field empties it and sets bad, so decoders read every field
// unconditionally and check once, in done.
type wireReader struct {
	b   []byte
	bad bool
}

func (r *wireReader) fail() {
	r.b, r.bad = nil, true
}

// uvarint refuses what binary.Uvarint reports as truncated or
// overflowing, and a padded spelling (a zero last byte of several), so
// every value has exactly one encoding.
func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) int64() int64 { return int64(r.uvarint()) }

func (r *wireReader) int() int {
	v := r.int64()
	if int64(int(v)) != v {
		r.fail()
	}
	return int(v)
}

// bytes returns the next length-prefixed field as a slice of the
// payload, capped so that an append to it cannot reach the next field,
// after checking the length against the bytes that remain. A zero
// length decodes as nil.
func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *wireReader) time() time.Time {
	if len(r.b) < 8 {
		r.fail()
		return time.Time{}
	}
	ns := int64(binary.BigEndian.Uint64(r.b))
	r.b = r.b[8:]
	if ns == zeroTimeNanos {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// count reads an element count and refuses one that the bytes remaining
// cannot hold at minEach bytes apiece, before anything is sized by it.
func (r *wireReader) count(minEach int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minEach) {
		r.fail()
		return 0
	}
	return int(n)
}

// records appends the decoded records to out; their keys and values
// alias the payload.
func (r *wireReader) records(out []Record) []Record {
	n := r.count(minRecordWire)
	out = slices.Grow(out, n)
	for i := 0; i < n && !r.bad; i++ {
		var rec Record
		rec.Partition = r.int()
		rec.Offset = r.int64()
		rec.Timestamp = r.time()
		rec.AppendTime = r.time()
		rec.Key = r.bytes()
		rec.Value = r.bytes()
		out = append(out, rec)
	}
	return out
}

// positions appends the decoded fetch positions to out.
func (r *wireReader) positions(out []FetchRequest) []FetchRequest {
	n := r.count(minFetchWire)
	out = slices.Grow(out, n)
	for i := 0; i < n && !r.bad; i++ {
		out = append(out, FetchRequest{Partition: r.int(), Offset: r.int64()})
	}
	return out
}

// done reports whether the payload decoded cleanly and completely.
func (r *wireReader) done() error {
	if r.bad || len(r.b) != 0 {
		return errMalformedFrame
	}
	return nil
}

// decodeProduce decodes a produce request, appending its records to
// recs. The topic aliases the payload, like the keys and values.
func decodeProduce(payload []byte, recs []Record) (topic []byte, partition int, out []Record, err error) {
	r := wireReader{b: payload}
	topic = r.bytes()
	partition = r.int()
	out = r.records(recs)
	return topic, partition, out, r.done()
}

// decodeFetch decodes a fetch request, appending its positions to reqs.
// The topic aliases the payload.
func decodeFetch(payload []byte, reqs []FetchRequest) (topic []byte, maxTotal int, out []FetchRequest, err error) {
	r := wireReader{b: payload}
	topic = r.bytes()
	maxTotal = r.int()
	out = r.positions(reqs)
	return topic, maxTotal, out, r.done()
}

// decodeAwait decodes an await request, appending its positions to reqs.
// The topic aliases the payload; the wait comes back as sent, for the
// server to clamp.
func decodeAwait(payload []byte, reqs []FetchRequest) (topic []byte, waitMs int64, out []FetchRequest, err error) {
	r := wireReader{b: payload}
	topic = r.bytes()
	waitMs = r.int64()
	out = r.positions(reqs)
	return topic, waitMs, out, r.done()
}

// decodeAck decodes a produce or an await response.
func decodeAck(tag byte, payload []byte) (int64, error) {
	if tag != tagAck {
		return 0, errMalformedFrame
	}
	r := wireReader{b: payload}
	offset := r.int64()
	return offset, r.done()
}

// decodeRecords decodes a records response, appending its records to recs.
func decodeRecords(tag byte, payload []byte, recs []Record) (out []Record, hw int64, epoch int, err error) {
	if tag != tagRecords {
		return nil, 0, 0, errMalformedFrame
	}
	r := wireReader{b: payload}
	hw = r.int64()
	epoch = r.int()
	out = r.records(recs)
	return out, hw, epoch, r.done()
}
