package ray

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"crayfish/internal/sps"
	"crayfish/internal/sps/spstest"
)

func TestConformance(t *testing.T) {
	spstest.RunConformance(t, func() sps.Processor { return newEngine() })
}

func TestFaultConformance(t *testing.T) {
	spstest.RunFaultConformance(t, func() sps.Processor { return newEngine() })
}

func TestBatchingConformance(t *testing.T) {
	spstest.RunBatchingConformance(t, func() sps.Processor { return newEngine() })
}

func TestRegistered(t *testing.T) {
	p, err := sps.New("ray")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "ray" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestObjectStorePutGet(t *testing.T) {
	s := newObjectStore()
	ref := s.put([]byte("payload"))
	got, err := s.get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Get = %q", got)
	}
	// Refs are single-consumer: second Get fails.
	if _, err := s.get(ref); err == nil {
		t.Fatal("double Get succeeded")
	}
	if n := len(s.objects); n != 0 {
		t.Fatalf("store leaked %d objects", n)
	}
}

func TestObjectStoreCopies(t *testing.T) {
	s := newObjectStore()
	src := []byte("abc")
	ref := s.put(src)
	src[0] = 'X'
	got, err := s.get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == 'X' {
		t.Fatal("Put aliased the caller's buffer")
	}
	got[0] = 'Y' // must not affect the (now deleted) stored value
}

func TestObjectStoreConcurrent(t *testing.T) {
	s := newObjectStore()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := []byte{byte(w)}
			for i := 0; i < 200; i++ {
				ref := s.put(payload)
				got, err := s.get(ref)
				if err != nil {
					errs <- err
					return
				}
				if got[0] != byte(w) {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := len(s.objects); n != 0 {
		t.Fatalf("store leaked %d objects", n)
	}
}

func TestActorChainDrainsOnClose(t *testing.T) {
	sys := newSystem()
	var received [][]byte
	var mu sync.Mutex
	sink := sys.spawn("sink", 8, func(a *actor) {
		for {
			v, ok, err := a.recv()
			if err != nil {
				t.Error(err)
				return
			}
			if !ok {
				return
			}
			mu.Lock()
			received = append(received, v)
			mu.Unlock()
		}
	})
	src := sys.spawn("src", 8, func(a *actor) {
		defer close(sink.Inbox)
		for i := 0; i < 5; i++ {
			a.send(sink, []byte{byte(i)})
		}
	})
	_ = src
	sys.Wait()
	if len(received) != 5 {
		t.Fatalf("sink received %d messages, want 5", len(received))
	}
	if n := len(sys.store.objects); n != 0 {
		t.Fatalf("object store leaked %d objects", n)
	}
}

func TestPipelineLeavesNoObjects(t *testing.T) {
	// After a full job run + stop, the object store must be empty:
	// every hop's ref was consumed.
	h := spstest.NewHarness(t, 2, 2)
	h.Produce(t, 20)
	e := newEngine()
	running, err := e.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	out := h.CollectOutput(t, 20, 10*time.Second)
	if len(out) != 20 {
		t.Fatalf("got %d records", len(out))
	}
	if err := running.Stop(); err != nil {
		t.Fatal(err)
	}
	if n := len(running.(*job).sys.store.objects); n != 0 {
		t.Fatalf("object store leaked %d objects", n)
	}
}
