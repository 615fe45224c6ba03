package grpcish

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"crayfish/internal/serving"
)

// TestServerSurvivesGarbage throws random byte streams and malformed
// frames at the RPC server: connections drop, the process survives, and
// well-formed clients keep working.
func TestServerSurvivesGarbage(t *testing.T) {
	s := NewServer()
	s.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	if err := s.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, r.Intn(256)+1)
		r.Read(junk)
		conn.Write(junk)
		conn.Close()
	}

	// Oversized frame length.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	conn.Write(hdr[:])
	conn.Close()

	// Method length exceeding the frame.
	conn, err = net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	frame := []byte{0, 0, 0, 4, 0xFF, 0xFF, 0, 0}
	conn.Write(frame)
	conn.Close()

	// A real client still works.
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call("echo", []byte("still alive"))
	if err != nil || string(resp) != "still alive" {
		t.Fatalf("post-garbage call: %q, %v", resp, err)
	}
}

// TestFrameHeaderCommitsNoBody: a length header announcing 64 MiB and
// then the end of the stream makes neither frame reader commit the
// announced size — the body grows only as its bytes arrive.
func TestFrameHeaderCommitsNoBody(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 64<<20)
	for name, read := range map[string]func(io.Reader) error{
		"request":  func(r io.Reader) error { _, _, err := readRequest(r); return err },
		"response": func(r io.Reader) error { _, _, err := readResponse(r); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read(bytes.NewReader(hdr[:]))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a bare header read as a frame", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
			t.Fatalf("%s: a bare 64 MiB header allocated %d bytes", name, grew)
		}
	}
}

// FuzzRPCFrame holds both frame readers and the batch payload the
// serving daemons carry in them to the broker decoders' contract: no
// input panics one, nothing is sized beyond what the input holds, and
// whatever decodes re-encodes to exactly the bytes it was read from.
func FuzzRPCFrame(f *testing.F) {
	var req, resp bytes.Buffer
	if err := writeRequest(&req, "Predict", serving.EncodeBatch([]float32{1, -2, 0.5, 3}, 2)); err != nil {
		f.Fatal(err)
	}
	if err := writeResponse(&resp, statusErr, []byte("boom")); err != nil {
		f.Fatal(err)
	}
	f.Add(req.Bytes())
	f.Add(resp.Bytes())
	f.Add(serving.EncodeBatch([]float32{7}, 1))
	f.Add([]byte{0, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		if method, payload, err := readRequest(r); err == nil {
			used := data[:len(data)-r.Len()]
			if 2+len(method)+cap(payload) > len(used)-4 {
				t.Fatalf("request: %d+%d bytes held from a %d-byte frame", len(method), cap(payload), len(used))
			}
			var again bytes.Buffer
			if err := writeRequest(&again, method, payload); err != nil || !bytes.Equal(again.Bytes(), used) {
				t.Fatalf("request re-encodes differently (%v):\n got %x\nwant %x", err, again.Bytes(), used)
			}
		}
		r = bytes.NewReader(data)
		if status, payload, err := readResponse(r); err == nil {
			used := data[:len(data)-r.Len()]
			if 1+cap(payload) > len(used)-4 {
				t.Fatalf("response: %d bytes held from a %d-byte frame", cap(payload), len(used))
			}
			var again bytes.Buffer
			if err := writeResponse(&again, status, payload); err != nil || !bytes.Equal(again.Bytes(), used) {
				t.Fatalf("response re-encodes differently (%v):\n got %x\nwant %x", err, again.Bytes(), used)
			}
		}
		if inputs, n, err := serving.DecodeBatch(data); err == nil {
			if 4+4*cap(inputs) > len(data) {
				t.Fatalf("batch: room for %d floats from a %d-byte payload", cap(inputs), len(data))
			}
			if again := serving.EncodeBatch(inputs, n); !bytes.Equal(again, data) {
				t.Fatalf("batch re-encodes differently:\n got %x\nwant %x", again, data)
			}
		}
	})
}
