package broker

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"crayfish/internal/grpcish"
	"crayfish/internal/resilience"
)

// frameHeader and readChunk are the framing's length prefix and the
// most its reader commits before a body's bytes arrive, the units the
// bounds below are stated in. They restate grpcish's unexported
// constants, which grpcish's TestFrameUnits pins to these values.
const (
	frameHeader = 4
	readChunk   = 1 << 20
)

// readFrame reads one frame the way both ends of a broker connection do
// and splits its body into the tag and the payload.
func readFrame(r io.Reader, scratch *[]byte) (byte, []byte, error) {
	body, err := grpcish.ReadFrame(r, scratch, keepsRecords)
	if err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// writeFrame is the framing's writer.
var writeFrame = grpcish.WriteFrame

// payloadOf strips the length prefix and the tag from a frame an
// encoder built.
func payloadOf(frame []byte) []byte { return frame[frameHeader+1:] }

// sameRecords compares records the way the wire promises them: integers
// exact, times by instant with the zero time staying zero, and a
// zero-length key or value arriving as nil.
func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	sameTime := func(a, b time.Time) bool {
		if b.IsZero() {
			return a.IsZero()
		}
		return !a.IsZero() && a.Equal(b)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Partition != w.Partition || g.Offset != w.Offset {
			t.Fatalf("record %d at %d/%d, want %d/%d", i, g.Partition, g.Offset, w.Partition, w.Offset)
		}
		if !sameTime(g.Timestamp, w.Timestamp) || !sameTime(g.AppendTime, w.AppendTime) {
			t.Fatalf("record %d times %v / %v, want %v / %v", i, g.Timestamp, g.AppendTime, w.Timestamp, w.AppendTime)
		}
		if !bytes.Equal(g.key, w.key) || !bytes.Equal(g.Value, w.Value) {
			t.Fatalf("record %d key/value differ", i)
		}
		if (len(w.key) == 0 && g.key != nil) || (len(w.Value) == 0 && g.Value != nil) {
			t.Fatalf("record %d: zero-length key/value decoded non-nil", i)
		}
		if cap(g.key) != len(g.key) || cap(g.Value) != len(g.Value) {
			t.Fatalf("record %d: an append to its key or value could reach the next field", i)
		}
	}
}

// randomRecords draws records over the edge cases the frames must
// carry: nil, empty and random keys and values, zero, pre-1970 and
// present timestamps, extreme and negative partitions and offsets.
func randomRecords(r *rand.Rand, n int) []Record {
	someBytes := func() []byte {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return []byte{}
		}
		p := make([]byte, 1+r.Intn(300))
		r.Read(p)
		return p
	}
	someTime := func() time.Time {
		switch r.Intn(4) {
		case 0:
			return time.Time{}
		case 1:
			return time.Unix(-r.Int63n(1e9), -r.Int63n(1e9)) // before 1970
		case 2:
			return time.Now() // carries a monotonic reading, which the wire drops
		}
		return time.Unix(0, r.Int63())
	}
	someInt := func() int64 {
		switch r.Intn(5) {
		case 0:
			return 0
		case 1:
			return math.MaxInt64
		case 2:
			return -1 - r.Int63n(1000)
		}
		return r.Int63n(1 << uint(1+r.Intn(62)))
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			key: someBytes(), Value: someBytes(),
			Timestamp: someTime(), AppendTime: someTime(),
			Partition: int(someInt()), Offset: someInt(),
		}
	}
	return recs
}

// TestWireFramesRoundTrip is the round-trip property of every binary
// frame, through the encoders and decoders and again through
// writeFrame/readFrame.
func TestWireFramesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for iter := 0; iter < 300; iter++ {
		recs := randomRecords(r, r.Intn(6))
		topic := string(randomRecords(r, 1)[0].key)
		partition, hw, epoch := int(r.Int63()), r.Int63(), int(r.Int31())
		if iter%7 == 0 {
			partition, hw = -3, -1
		}

		gotTopic, gotPartition, got, err := decodeProduce(payloadOf(appendProduceFrame(nil, topic, partition, recs)), nil)
		if err != nil || string(gotTopic) != topic || gotPartition != partition {
			t.Fatalf("produce: %q/%d, %v; want %q/%d", gotTopic, gotPartition, err, topic, partition)
		}
		sameRecords(t, got, recs)

		got, gotHW, gotEpoch, err := decodeRecords(tagRecords, payloadOf(appendRecordsFrame(nil, hw, epoch, recs)), nil)
		if err != nil || gotHW != hw || gotEpoch != epoch {
			t.Fatalf("records: hw %d epoch %d, %v; want %d %d", gotHW, gotEpoch, err, hw, epoch)
		}
		sameRecords(t, got, recs)

		reqs := make([]FetchRequest, r.Intn(5))
		for i := range reqs {
			reqs[i] = FetchRequest{Partition: recsOr(recs, i).Partition, Offset: recsOr(recs, i).Offset}
		}
		gotTopic, gotMax, gotReqs, err := decodeFetch(payloadOf(appendFetchFrame(nil, topic, reqs, partition)), nil)
		if err != nil || string(gotTopic) != topic || gotMax != partition || len(gotReqs) != len(reqs) {
			t.Fatalf("fetch: %q max %d, %d positions, %v", gotTopic, gotMax, len(gotReqs), err)
		}
		for i := range reqs {
			if gotReqs[i] != reqs[i] {
				t.Fatalf("fetch position %d = %+v, want %+v", i, gotReqs[i], reqs[i])
			}
		}

		// An await is a fetch's positions under a wait: any int64, the
		// server clamps what it makes of it.
		gotTopic, gotWait, gotReqs, err := decodeAwait(payloadOf(appendAwaitFrame(nil, topic, hw, reqs)), nil)
		if err != nil || string(gotTopic) != topic || gotWait != hw || !slices.Equal(gotReqs, reqs) {
			t.Fatalf("await: %q wait %d, %d positions, %v", gotTopic, gotWait, len(gotReqs), err)
		}

		if off, err := decodeAck(tagAck, payloadOf(appendAckFrame(nil, hw))); err != nil || off != hw {
			t.Fatalf("ack: %d, %v; want %d", off, err, hw)
		}

		// The same records through the framing: the reader's payload is
		// what the encoder wrote, and the decoded keys and values sit in
		// a body of their own, not in the scratch.
		var conn bytes.Buffer
		if err := writeFrame(&conn, appendRecordsFrame(nil, hw, epoch, recs)); err != nil {
			t.Fatal(err)
		}
		var scratch []byte
		tag, payload, err := readFrame(&conn, &scratch)
		if err != nil || conn.Len() != 0 {
			t.Fatalf("readFrame: %v, %d bytes left", err, conn.Len())
		}
		got, _, _, err = decodeRecords(tag, payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range scratch[:cap(scratch)] {
			scratch[:cap(scratch)][i] = 0xEE
		}
		sameRecords(t, got, recs)
	}
}

func recsOr(recs []Record, i int) Record {
	if i < len(recs) {
		return recs[i]
	}
	return Record{Partition: i, Offset: int64(i) << 40}
}

// TestWireDecodersAppend: decoders append to the slice they are given
// and reuse its capacity.
func TestWireDecodersAppend(t *testing.T) {
	recs := []Record{{Value: []byte("a")}, {Value: []byte("b"), Offset: 1}}
	payload := payloadOf(appendRecordsFrame(nil, 0, 0, recs))
	buf := make([]Record, 1, 8)
	buf[0] = Record{Value: []byte("kept")}
	got, _, _, err := decodeRecords(tagRecords, payload, buf)
	if err != nil || len(got) != 3 || string(got[0].Value) != "kept" || &got[0] != &buf[0] {
		t.Fatalf("decodeRecords did not append in place: %d records, %v", len(got), err)
	}
	sameRecords(t, got[1:], recs)
}

// TestWireRejectsMalformed: every truncation of a valid payload, a
// trailing byte, a padded varint, a wrong response tag, and counts and
// lengths the bytes remaining cannot hold are all refused — the last
// without sizing anything by the claimed count.
func TestWireRejectsMalformed(t *testing.T) {
	recs := []Record{{key: []byte("k"), Value: []byte("value"), Timestamp: time.Unix(1, 2), Partition: 3, Offset: 4}, {Value: []byte("v")}}
	produce := payloadOf(appendProduceFrame(nil, "topic", 1, recs))
	records := payloadOf(appendRecordsFrame(nil, 9, 2, recs))
	fetch := payloadOf(appendFetchFrame(nil, "topic", []FetchRequest{{Partition: 1, Offset: 2}, {Partition: 3}}, 16))
	await := payloadOf(appendAwaitFrame(nil, "topic", 50, []FetchRequest{{Partition: 1, Offset: 2}, {Partition: 3}}))
	ack := payloadOf(appendAckFrame(nil, 300))

	decoders := map[string]func([]byte) error{
		"await":   func(p []byte) error { _, _, _, err := decodeAwait(p, nil); return err },
		"produce": func(p []byte) error { _, _, _, err := decodeProduce(p, nil); return err },
		"records": func(p []byte) error { _, _, _, err := decodeRecords(tagRecords, p, nil); return err },
		"fetch":   func(p []byte) error { _, _, _, err := decodeFetch(p, nil); return err },
		"ack":     func(p []byte) error { _, err := decodeAck(tagAck, p); return err },
	}
	for name, payload := range map[string][]byte{"produce": produce, "records": records, "fetch": fetch, "await": await, "ack": ack} {
		decode := decoders[name]
		if err := decode(payload); err != nil {
			t.Fatalf("%s: valid payload refused: %v", name, err)
		}
		for cut := 0; cut < len(payload); cut++ {
			if err := decode(payload[:cut]); err == nil {
				t.Errorf("%s: truncation to %d of %d bytes accepted", name, cut, len(payload))
			}
		}
		if err := decode(append(payload[:len(payload):len(payload)], 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
	if _, err := decodeAck(tagRecords, ack); err == nil {
		t.Error("ack decoder accepted a records tag")
	}
	if _, _, _, err := decodeRecords(tagAck, records, nil); err == nil {
		t.Error("records decoder accepted an ack tag")
	}
	// 300 is 0xAC 0x02; 0xAC 0x82 0x00 spells it with a padding byte.
	if _, err := decodeAck(tagAck, []byte{0xAC, 0x82, 0x00}); err == nil {
		t.Error("padded varint accepted")
	}

	// A count of 2^40 records, then one real record: refused, and
	// refused before a slice of 2^40 records is asked for.
	huge := binary.AppendUvarint([]byte{0, 0}, 1<<40)
	huge = append(huge, payloadOf(appendRecordsFrame(nil, 0, 0, recs[:1]))[3:]...)
	if got, _, _, err := decodeRecords(tagRecords, huge, nil); err == nil || cap(got) != 0 {
		t.Errorf("oversized record count: err %v, cap %d", err, cap(got))
	}
	// A value length one past the end of the payload.
	long := payloadOf(appendRecordsFrame(nil, 0, 0, []Record{{Value: []byte("abc")}}))
	long[len(long)-4]++
	if _, _, _, err := decodeRecords(tagRecords, long, nil); err == nil {
		t.Error("value length past the payload accepted")
	}
	// A fetch, and an await, claiming more positions than they have
	// bytes for.
	if _, _, got, err := decodeFetch(binary.AppendUvarint([]byte{0, 1}, 1<<50), nil); err == nil || cap(got) != 0 {
		t.Errorf("oversized position count: err %v, cap %d", err, cap(got))
	}
	if _, _, got, err := decodeAwait(binary.AppendUvarint([]byte{0, 50}, 1<<50), nil); err == nil || cap(got) != 0 {
		t.Errorf("oversized await position count: err %v, cap %d", err, cap(got))
	}
}

// TestWireErrorResponses sends each typed error the clients reconstruct
// through the control tag and back.
func TestWireErrorResponses(t *testing.T) {
	roundTrip := func(err error) error {
		t.Helper()
		frame, ferr := appendErrorFrame(nil, err)
		if ferr != nil {
			t.Fatal(ferr)
		}
		var conn bytes.Buffer
		if werr := writeFrame(&conn, frame); werr != nil {
			t.Fatal(werr)
		}
		var scratch []byte
		tag, payload, rerr := readFrame(&conn, &scratch)
		if rerr != nil || tag != tagControl {
			t.Fatalf("readFrame: tag %q, %v", tag, rerr)
		}
		var resp wireResponse
		if jerr := json.Unmarshal(payload, &resp); jerr != nil {
			t.Fatal(jerr)
		}
		return decodeWireError(&resp)
	}

	if err := roundTrip(errRebalance); !errors.Is(err, errRebalance) || resilience.IsRetryable(err) {
		t.Errorf("rebalance came back as %v", err)
	}
	sent := &NotLeaderError{TP: TopicPartition{Topic: "t", Partition: 2}, Leader: 1, Epoch: 7}
	var nl *NotLeaderError
	if err := roundTrip(resilience.MarkRetryable(sent)); !errors.As(err, &nl) || *nl != *sent || !errors.Is(err, ErrNotLeader) || !resilience.IsRetryable(err) {
		t.Errorf("not-leader came back as %v", err)
	}
	if err := roundTrip(resilience.MarkRetryable(errors.New("try again"))); !resilience.IsRetryable(err) || err.Error() != "try again" {
		t.Errorf("retryable came back as %v", err)
	}
	plain := errors.New("broker: unknown topic: \"x\"")
	if err := roundTrip(plain); err.Error() != plain.Error() || resilience.IsRetryable(err) || errors.Is(err, errRebalance) {
		t.Errorf("plain error came back as %v", err)
	}
}

// TestReadFrameDoesNotTrustTheHeader: a header announcing the largest
// legal frame, with no body behind it, costs the reader at most one
// bounded chunk; one past the limit, or an empty frame, costs nothing.
func TestReadFrameDoesNotTrustTheHeader(t *testing.T) {
	for _, tag := range []byte{tagProduce, tagControl} {
		hdr := binary.BigEndian.AppendUint32(nil, grpcish.MaxFrame)
		var before, after runtime.MemStats
		var scratch []byte
		runtime.ReadMemStats(&before)
		_, _, err := readFrame(bytes.NewReader(append(hdr, tag)), &scratch)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("tag %q: a frame with no body was read", tag)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*readChunk {
			t.Errorf("tag %q: a bare header made readFrame allocate %d bytes", tag, grew)
		}
	}
	for _, size := range []uint32{0, grpcish.MaxFrame + 1, math.MaxUint32} {
		var scratch []byte
		hdr := append(binary.BigEndian.AppendUint32(nil, size), tagControl)
		if _, _, err := readFrame(bytes.NewReader(hdr), &scratch); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("frame length %d: %v, want it refused from the header", size, err)
		}
	}
}

// TestReadFrameGrowsLargeBodies: a body past the first chunk arrives
// intact, in a slice no longer than the frame.
func TestReadFrameGrowsLargeBodies(t *testing.T) {
	value := make([]byte, 3*readChunk+12345)
	rand.New(rand.NewSource(3)).Read(value)
	var conn bytes.Buffer
	if err := writeFrame(&conn, appendRecordsFrame(nil, 0, 0, []Record{{Value: value}})); err != nil {
		t.Fatal(err)
	}
	want := conn.Len() - frameHeader - 1
	var scratch []byte
	tag, payload, err := readFrame(&conn, &scratch)
	if err != nil || len(payload) != want || cap(payload) != want {
		t.Fatalf("readFrame: %v, len %d cap %d, want %d", err, len(payload), cap(payload), want)
	}
	got, _, _, err := decodeRecords(tag, payload, nil)
	if err != nil || len(got) != 1 || !bytes.Equal(got[0].Value, value) {
		t.Fatalf("large record did not survive: %v", err)
	}
}

// TestRecordsFrameStopsAtTheFrameLimit: a fetch whose records would
// outgrow grpcish.MaxFrame is answered with the ones that fit.
func TestRecordsFrameStopsAtTheFrameLimit(t *testing.T) {
	value := make([]byte, grpcish.MaxFrame/3+1) // shared: three of these are one byte too many
	recs := []Record{{Value: value, Offset: 0}, {Value: value, Offset: 1}, {Value: value, Offset: 2}, {Value: []byte("small"), Offset: 3}}
	frame := appendRecordsFrame(nil, 0, 0, recs)
	if len(frame)-frameHeader > grpcish.MaxFrame {
		t.Fatalf("frame of %d bytes exceeds the limit", len(frame)-frameHeader)
	}
	got, _, _, err := decodeRecords(tagRecords, payloadOf(frame), nil)
	if err != nil || len(got) != 2 || got[1].Offset != 1 {
		t.Fatalf("decoded %d records, %v; want the first 2", len(got), err)
	}
	// One record alone always goes, whatever its size — refusing it
	// would stall the reader for good — and writeFrame is where a frame
	// past the limit fails, typed.
	if err := writeFrame(io.Discard, make([]byte, frameHeader+grpcish.MaxFrame+1)); !errors.Is(err, grpcish.ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
}

// FuzzWireFrameDecode feeds arbitrary bytes to the framing and to every
// decoder of the wire protocol. data is a frame without its length
// prefix: the tag, then the payload. Nothing may panic; a decoder sizes
// nothing beyond what the payload could hold (a bare header costs the
// framing one bounded chunk); and whatever a binary decoder accepts
// re-encodes to exactly the bytes it was given, so every request and
// response has one spelling. The seed corpus is
// testdata/fuzz/FuzzWireFrameDecode.
func FuzzWireFrameDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// As a byte stream: whatever the first five bytes claim.
		var scratch []byte
		if _, payload, err := readFrame(bytes.NewReader(data), &scratch); cap(scratch)+cap(payload) > readChunk+2*len(data) {
			t.Fatalf("readFrame (%v) holds %d+%d bytes from a %d-byte stream", err, cap(scratch), cap(payload), len(data))
		}
		if len(data) == 0 {
			return
		}
		// As one well-framed frame.
		var wire bytes.Buffer
		if err := writeFrame(&wire, append(make([]byte, frameHeader), data...)); err != nil {
			t.Fatal(err)
		}
		tag, payload, err := readFrame(&wire, &scratch)
		if err != nil || tag != data[0] || !bytes.Equal(payload, data[1:]) {
			t.Fatalf("framing round trip: tag %q, %v", tag, err)
		}

		// heldBy fails the run when a decoder sized a slice of n elements
		// of at least minEach wire bytes each beyond what the payload
		// could hold, with a factor of two for the allocator's rounding.
		heldBy := func(what string, n, minEach int) {
			if n*minEach > 2*len(payload)+minEach {
				t.Fatalf("%s: room for %d elements sized from a %d-byte payload", what, n, len(payload))
			}
		}
		var again []byte
		switch tag {
		case tagProduce:
			topic, partition, recs, err := decodeProduce(payload, nil)
			heldBy("produce", cap(recs), minRecordWire)
			if err != nil {
				return
			}
			again = appendProduceFrame(nil, string(topic), partition, recs)
		case tagFetch:
			topic, maxTotal, reqs, err := decodeFetch(payload, nil)
			heldBy("fetch", cap(reqs), minFetchWire)
			if err != nil {
				return
			}
			again = appendFetchFrame(nil, string(topic), reqs, maxTotal)
		case tagAwait:
			topic, waitMs, reqs, err := decodeAwait(payload, nil)
			heldBy("await", cap(reqs), minFetchWire)
			if err != nil {
				return
			}
			again = appendAwaitFrame(nil, string(topic), waitMs, reqs)
		case tagAck:
			offset, err := decodeAck(tag, payload)
			if err != nil {
				return
			}
			again = appendAckFrame(nil, offset)
		case tagRecords:
			recs, hw, epoch, err := decodeRecords(tag, payload, nil)
			heldBy("records", cap(recs), minRecordWire)
			if err != nil {
				return
			}
			again = appendRecordsFrame(nil, hw, epoch, recs)
		case tagControl:
			// JSON has many spellings of one document; only that both
			// control decoders survive it is checked, and that an error
			// response still reconstructs.
			var req wireRequest
			_ = json.Unmarshal(payload, &req)
			var resp wireResponse
			if json.Unmarshal(payload, &resp) == nil && resp.Err != "" && decodeWireError(&resp) == nil {
				t.Fatal("error response decoded to a nil error")
			}
			return
		default:
			return
		}
		if !bytes.Equal(again[frameHeader:], data) {
			t.Fatalf("tag %q: decoded frame re-encodes differently:\n got %x\nwant %x", tag, again[frameHeader:], data)
		}
	})
}

// ffnnBatch is the benchmarks' frame: 16 records the size of the
// pipeline's FFNN JSON DataBatch, the shape of the benchmark's broker
// probe (bench/probe.go).
func ffnnBatch() []Record {
	const n, size = 16, 8400
	values := make([]byte, n*size)
	rand.New(rand.NewSource(1)).Read(values)
	recs := make([]Record, n)
	now := time.Unix(1727500000, 0)
	for i := range recs {
		recs[i] = Record{Value: values[i*size : (i+1)*size], Timestamp: now, AppendTime: now, Partition: 1, Offset: int64(1000 + i)}
	}
	return recs
}

// BenchmarkWireFrameEncode builds one 16-record records frame in a
// warmed scratch (booked as wire_frame_encode_ns).
func BenchmarkWireFrameEncode(b *testing.B) {
	recs := ffnnBatch()
	var frame []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame = appendRecordsFrame(frame, 0, 0, recs)
	}
	b.SetBytes(int64(len(frame)))
}

// BenchmarkWireFrameDecode decodes that frame into a warmed record
// buffer (booked as wire_frame_decode_ns).
func BenchmarkWireFrameDecode(b *testing.B) {
	payload := payloadOf(appendRecordsFrame(nil, 0, 0, ffnnBatch()))
	var recs []Record
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		var err error
		if recs, _, _, err = decodeRecords(tagRecords, payload, recs[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteProduceFetch is one 16-record produce and the fetch
// that reads it back, over loopback TCP against a served broker; a
// sixteenth of it is booked as broker_tcp_rt_us_per_rec. The topic is
// recreated, off the clock, every 256 records, so a long run does not
// hold every frame.
func BenchmarkRemoteProduceFetch(b *testing.B) {
	br := New(DefaultConfig())
	srv, err := Serve(br, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	rc, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer rc.Close()
	if err := rc.CreateTopic("t", 1); err != nil {
		b.Fatal(err)
	}
	recs := ffnnBatch()
	var out []Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%16 == 0 {
			b.StopTimer()
			if err := rc.DeleteTopic("t"); err != nil {
				b.Fatal(err)
			}
			if err := rc.CreateTopic("t", 1); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		base, err := rc.Produce("t", 0, recs)
		if err != nil {
			b.Fatal(err)
		}
		if out, err = rc.FetchMultiInto("t", []FetchRequest{{Offset: base}}, len(recs), out[:0]); err != nil || len(out) != len(recs) {
			b.Fatalf("fetched %d of %d records at %d: %v", len(out), len(recs), base, err)
		}
	}
}
