package batching

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crayfish/internal/telemetry"
)

// fakeClock is a hand-cranked virtual clock: Now reads a settable
// instant and After hands every watcher the same manually-fired
// channel, so tests drive the linger trigger deterministically. afters
// counts the linger watchers that started waiting.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	ch     chan time.Time
	afters atomic.Int64
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(0, 0), ch: make(chan time.Time)}
}

func (f *fakeClock) Clock() batchClock {
	return batchClock{
		Now: func() time.Time {
			f.mu.Lock()
			defer f.mu.Unlock()
			return f.now
		},
		After: func(time.Duration) <-chan time.Time {
			f.afters.Add(1)
			return f.ch
		},
	}
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// fireLinger wakes one linger watcher, as if its deadline passed.
func (f *fakeClock) fireLinger() { f.ch <- time.Time{} }

// fireLingerUntil keeps firing the linger deadline until done closes:
// a watcher whose batch was already cut may take one firing and stand
// down, so one firing alone could miss the watcher that matters.
func (f *fakeClock) fireLingerUntil(done <-chan struct{}) {
	for {
		select {
		case f.ch <- time.Time{}:
		case <-done:
			return
		}
	}
}

// echoBatch is the reference batch transform: every value gains a
// "!scored" suffix, positionally.
func echoBatch(values [][]byte) ([][]byte, error) {
	outs := make([][]byte, len(values))
	for i, v := range values {
		outs[i] = append(append([]byte(nil), v...), []byte("!scored")...)
	}
	return outs, nil
}

func echoSingle(value []byte) ([]byte, error) {
	return append(append([]byte(nil), value...), []byte("!scored")...), nil
}

// pendingLen reads the open batch's size (test-only).
func (b *Batcher) pendingLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur == nil {
		return 0
	}
	return len(b.cur.reqs)
}

func TestSizeTriggerCoalescesAndDemuxes(t *testing.T) {
	fc := newFakeClock()
	reg := telemetry.New()
	var calls atomic.Int64
	var maxSeen atomic.Int64
	b, err := New(Config{
		Policy: Policy{MaxBatch: 4, Linger: time.Hour},
		Batch: func(values [][]byte) ([][]byte, error) {
			calls.Add(1)
			if n := int64(len(values)); n > maxSeen.Load() {
				maxSeen.Store(n)
			}
			return echoBatch(values)
		},
		Metrics: reg,
		clock:   fc.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 8 // two full batches of 4
	var wg sync.WaitGroup
	results := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = b.Do([]byte(fmt.Sprintf("r%d", i)))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("record %d: %v", i, errs[i])
		}
		want := []byte(fmt.Sprintf("r%d!scored", i))
		if !bytes.Equal(results[i], want) {
			t.Fatalf("record %d demuxed wrong: %q != %q", i, results[i], want)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("batch invocations = %d, want 2", got)
	}
	if got := maxSeen.Load(); got != 4 {
		t.Fatalf("max batch size seen = %d, want 4", got)
	}
	if got := reg.Counter(metricSizeFlush).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", metricSizeFlush, got)
	}
	if got := reg.Counter(metricLingerFlush).Value(); got != 0 {
		t.Fatalf("%s = %d, want 0", metricLingerFlush, got)
	}
	if got := reg.Histogram(metricBatchSize).Count(); got != 2 {
		t.Fatalf("%s count = %d, want 2", metricBatchSize, got)
	}
}

func TestLingerTriggerShipsPartialBatch(t *testing.T) {
	fc := newFakeClock()
	reg := telemetry.New()
	b, err := New(Config{
		Policy:  Policy{MaxBatch: 16, Linger: time.Millisecond},
		Batch:   echoBatch,
		Metrics: reg,
		clock:   fc.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	results := make([][]byte, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = b.Do([]byte(fmt.Sprintf("r%d", i)))
		}(i)
	}
	// Wait until both records are coalesced, then fire the deadline.
	for b.pendingLen() != 2 {
		time.Sleep(50 * time.Microsecond)
	}
	fc.fireLinger()
	wg.Wait()
	for i := 0; i < 2; i++ {
		want := []byte(fmt.Sprintf("r%d!scored", i))
		if !bytes.Equal(results[i], want) {
			t.Fatalf("record %d: %q != %q", i, results[i], want)
		}
	}
	if got := reg.Counter(metricLingerFlush).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", metricLingerFlush, got)
	}
	if got := reg.Counter(metricSizeFlush).Value(); got != 0 {
		t.Fatalf("%s = %d, want 0", metricSizeFlush, got)
	}
}

func TestPartialBatchErrorDropsOnlyFailingRecords(t *testing.T) {
	fc := newFakeClock()
	wantErr := errors.New("record poisoned")
	b, err := New(Config{
		Policy: Policy{MaxBatch: 4, Linger: time.Hour},
		Batch: func(values [][]byte) ([][]byte, error) {
			return nil, errors.New("whole batch failed")
		},
		Single: func(value []byte) ([]byte, error) {
			if bytes.Equal(value, []byte("poison")) {
				return nil, wantErr
			}
			return echoSingle(value)
		},
		clock: fc.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	inputs := [][]byte{[]byte("a"), []byte("poison"), []byte("b"), []byte("c")}
	var wg sync.WaitGroup
	results := make([][]byte, len(inputs))
	errs := make([]error, len(inputs))
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = b.Do(inputs[i])
		}(i)
	}
	wg.Wait()
	for i := range inputs {
		if i == 1 {
			if !errors.Is(errs[i], wantErr) {
				t.Fatalf("poisoned record error = %v, want %v", errs[i], wantErr)
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("healthy record %d failed: %v", i, errs[i])
		}
		want := append(append([]byte(nil), inputs[i]...), []byte("!scored")...)
		if !bytes.Equal(results[i], want) {
			t.Fatalf("record %d: %q != %q", i, results[i], want)
		}
	}
}

func TestOutputCountMismatchTriggersFallback(t *testing.T) {
	fc := newFakeClock()
	var singles atomic.Int64
	b, err := New(Config{
		Policy: Policy{MaxBatch: 2, Linger: time.Hour},
		Batch: func(values [][]byte) ([][]byte, error) {
			return values[:1], nil // one output short
		},
		Single: func(value []byte) ([]byte, error) {
			singles.Add(1)
			return echoSingle(value)
		},
		clock: fc.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := b.Do([]byte{byte(i)})
			if err != nil || !bytes.HasSuffix(out, []byte("!scored")) {
				t.Errorf("record %d: %q, %v", i, out, err)
			}
		}(i)
	}
	wg.Wait()
	if got := singles.Load(); got != 2 {
		t.Fatalf("fallback singles = %d, want 2", got)
	}
}

func TestBatchErrorWithoutFallbackPropagates(t *testing.T) {
	fc := newFakeClock()
	wantErr := errors.New("scorer down")
	b, err := New(Config{
		Policy: Policy{MaxBatch: 1, Linger: time.Hour},
		Batch:  func([][]byte) ([][]byte, error) { return nil, wantErr },
		clock:  fc.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Do([]byte("x")); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestAIMDGrowsUnderSLOAndHalvesOnBreach(t *testing.T) {
	fc := newFakeClock()
	reg := telemetry.New()
	b, err := New(Config{
		Policy:  Policy{MaxBatch: 8, MinBatch: 1, Linger: time.Hour, SLO: time.Millisecond, Window: 4},
		Batch:   echoBatch,
		Metrics: reg,
		clock:   fc.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.targetNow(); got != 1 {
		t.Fatalf("adaptive target starts at %d, want MinBatch 1", got)
	}

	window := func(age time.Duration) []*request {
		reqs := make([]*request, 4)
		for i := range reqs {
			reqs[i] = &request{start: fc.Clock().Now().Add(-age)}
		}
		return reqs
	}
	// Additive increase: four under-SLO windows, one step each.
	for i := 0; i < 4; i++ {
		b.observe(window(0))
	}
	if got := b.targetNow(); got != 5 {
		t.Fatalf("target after 4 good windows = %d, want 5", got)
	}
	if got := reg.Gauge(metricTarget).Value(); got != 5 {
		t.Fatalf("%s gauge = %d, want 5", metricTarget, got)
	}
	// Multiplicative decrease on breach.
	b.observe(window(10 * time.Millisecond))
	if got := b.targetNow(); got != 2 {
		t.Fatalf("target after breach = %d, want 2 (halved from 5, floored at 2)", got)
	}
	// Clamp at MaxBatch.
	for i := 0; i < 20; i++ {
		b.observe(window(0))
	}
	if got := b.targetNow(); got != 8 {
		t.Fatalf("target clamps at %d, want MaxBatch 8", got)
	}
	// Halving never goes below MinBatch.
	for i := 0; i < 10; i++ {
		b.observe(window(10 * time.Millisecond))
	}
	if got := b.targetNow(); got != 1 {
		t.Fatalf("target floors at %d, want MinBatch 1", got)
	}
}

func TestCloseFlushesOpenBatchAndRejectsNewWork(t *testing.T) {
	fc := newFakeClock()
	b, err := New(Config{
		Policy: Policy{MaxBatch: 16, Linger: time.Hour},
		Batch:  echoBatch,
		clock:  fc.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var out []byte
	var doErr error
	go func() {
		defer close(done)
		out, doErr = b.Do([]byte("straggler"))
	}()
	for b.pendingLen() != 1 {
		time.Sleep(50 * time.Microsecond)
	}
	b.Close()
	<-done
	if doErr != nil || !bytes.Equal(out, []byte("straggler!scored")) {
		t.Fatalf("drained record: %q, %v", out, doErr)
	}
	if _, err := b.Do([]byte("late")); !errors.Is(err, errClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
	if _, errs := b.DoMany([][]byte{[]byte("late")}, 1); !errors.Is(errs[0], errClosed) {
		t.Fatalf("DoMany after Close = %v, want ErrClosed", errs[0])
	}
	b.Close() // idempotent
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.MaxBatch != 16 || p.MinBatch != 1 || p.Linger != 2*time.Millisecond || p.Window != 64 {
		t.Fatalf("defaults: %+v", p)
	}
	q := Policy{MaxBatch: 4, MinBatch: 9}.withDefaults()
	if q.MinBatch != 4 {
		t.Fatalf("MinBatch not clamped to MaxBatch: %+v", q)
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config without a Batch function")
	}
}

// TestConcurrentStress hammers a real-clock batcher from many
// goroutines — plain Do callers beside registered DoMany submitters of
// varying sizes; under -race this is the package's concurrency proof.
func TestConcurrentStress(t *testing.T) {
	reg := telemetry.New()
	b, err := New(Config{
		Policy:  Policy{MaxBatch: 8, Linger: 100 * time.Microsecond, SLO: 50 * time.Millisecond, Window: 16},
		Batch:   echoBatch,
		Single:  echoSingle,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 16, 50
	const submitters, rounds = 4, 30
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer b.Register()()
			for i := 0; i < rounds; i++ {
				in := make([][]byte, 1+(s*7+i)%20)
				for k := range in {
					in[k] = []byte(fmt.Sprintf("s%d-%d-%d", s, i, k))
				}
				outs, errs := b.DoMany(in, 1+s%3)
				for k := range in {
					if errs[k] != nil || !bytes.Equal(outs[k], append(append([]byte(nil), in[k]...), []byte("!scored")...)) {
						t.Errorf("%s: %q, %v", in[k], outs[k], errs[k])
						return
					}
				}
			}
		}(s)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				in := []byte(fmt.Sprintf("w%d-%d", w, i))
				out, err := b.Do(in)
				if err != nil {
					t.Errorf("w%d-%d: %v", w, i, err)
					return
				}
				want := append(append([]byte(nil), in...), []byte("!scored")...)
				if !bytes.Equal(out, want) {
					t.Errorf("w%d-%d demuxed wrong: %q", w, i, out)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.Close()
	total := reg.Counter(metricSizeFlush).Value() + reg.Counter(metricQuorumFlush).Value() + reg.Counter(metricLingerFlush).Value()
	if total != reg.Histogram(metricBatchSize).Count() {
		t.Fatalf("%d flushes counted by trigger, %d batches recorded", total, reg.Histogram(metricBatchSize).Count())
	}
	want := int64(workers * perWorker)
	for s := 0; s < submitters; s++ {
		for i := 0; i < rounds; i++ {
			want += int64(1 + (s*7+i)%20)
		}
	}
	if got := reg.Histogram(metricBatchSize).Sum(); got != want {
		t.Fatalf("batch size histogram sum = %d, want %d records", got, want)
	}
}

// targetNow reads the current batch-size target (fixed at MaxBatch
// without an SLO; AIMD-tuned with one).
func (b *Batcher) targetNow() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.target
}

// recordingBatch is echoBatch that also keeps each batch's membership.
type recordingBatch struct {
	mu      sync.Mutex
	batches [][]string
}

func (r *recordingBatch) batch(values [][]byte) ([][]byte, error) {
	members := make([]string, len(values))
	for i, v := range values {
		members[i] = string(v)
	}
	r.mu.Lock()
	r.batches = append(r.batches, members)
	r.mu.Unlock()
	return echoBatch(values)
}

func (r *recordingBatch) seen() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprint(r.batches)
}

// submit runs DoMany on its own goroutine; the returned channel closes
// once it has returned, after checking every output.
func submit(t *testing.T, b *Batcher, values ...string) chan struct{} {
	t.Helper()
	done := make(chan struct{})
	in := make([][]byte, len(values))
	for i, v := range values {
		in[i] = []byte(v)
	}
	go func() {
		defer close(done)
		outs, errs := b.DoMany(in, 1)
		for i, v := range values {
			if errs[i] != nil || string(outs[i]) != v+"!scored" {
				t.Errorf("%s: %q, %v", v, outs[i], errs[i])
			}
		}
	}()
	return done
}

// waitFor polls cond until it holds, and fails the test if it does not
// within 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// stillOpen asserts that the open batch holds n records and, after a
// pause long enough for a wrongly-fired trigger to show, still does.
func stillOpen(t *testing.T, b *Batcher, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("the open batch holds %d records", n), func() bool { return b.pendingLen() == n })
	time.Sleep(10 * time.Millisecond)
	if got := b.pendingLen(); got != n {
		t.Fatalf("open batch holds %d records after the pause, want %d still waiting", got, n)
	}
}

func flushCounts(reg *telemetry.Registry) string {
	return fmt.Sprintf("size=%d quorum=%d linger=%d", reg.Counter(metricSizeFlush).Value(),
		reg.Counter(metricQuorumFlush).Value(), reg.Counter(metricLingerFlush).Value())
}

// TestQuorumOneSubmitterNeverWaitsOnTheClock: the only registered
// submitter parks on its own tail, so the tail ships at once — the
// virtual clock never fires, and no linger watcher even starts.
func TestQuorumOneSubmitterNeverWaitsOnTheClock(t *testing.T) {
	fc := newFakeClock()
	reg := telemetry.New()
	rec := &recordingBatch{}
	b, err := New(Config{Policy: Policy{MaxBatch: 4, Linger: time.Hour}, Batch: rec.batch, Metrics: reg, clock: fc.Clock()})
	if err != nil {
		t.Fatal(err)
	}
	deregister := b.Register()
	<-submit(t, b, "r0", "r1", "r2", "r3", "r4")
	deregister()
	b.Close()
	if got, want := rec.seen(), "[[r0 r1 r2 r3] [r4]]"; got != want {
		t.Fatalf("batches %s, want %s", got, want)
	}
	if got, want := flushCounts(reg), "size=1 quorum=1 linger=0"; got != want {
		t.Fatalf("flushes %s, want %s", got, want)
	}
	if n := fc.afters.Load(); n != 0 {
		t.Fatalf("%d linger watchers started, want none: every batch was cut in the section that opened it", n)
	}
}

// TestQuorumShipsWhenEveryTailHasJoined: with B outside the batcher,
// A's tail waits for the linger; once B's tail joins, the batch ships at
// once and holds both tails — the membership the linger would have cut.
func TestQuorumShipsWhenEveryTailHasJoined(t *testing.T) {
	fc := newFakeClock()
	reg := telemetry.New()
	rec := &recordingBatch{}
	b, err := New(Config{Policy: Policy{MaxBatch: 16, Linger: time.Hour}, Batch: rec.batch, Metrics: reg, clock: fc.Clock()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	defer b.Register()()
	defer b.Register()()

	a := submit(t, b, "a0")
	stillOpen(t, b, 1)
	<-submit(t, b, "b0")
	<-a
	if got, want := rec.seen(), "[[a0 b0]]"; got != want {
		t.Fatalf("batches %s, want %s", got, want)
	}
	if got, want := flushCounts(reg), "size=0 quorum=1 linger=0"; got != want {
		t.Fatalf("flushes %s, want %s", got, want)
	}

	// B stays outside: A's next tail ships on the linger, as before.
	a = submit(t, b, "a1")
	stillOpen(t, b, 1)
	fc.fireLingerUntil(a)
	if got, want := flushCounts(reg), "size=0 quorum=1 linger=1"; got != want {
		t.Fatalf("flushes %s, want %s", got, want)
	}
}

// TestQuorumSkipsSubmitterParkedOnFlushedBatch: A's tail was cut into a
// batch that is still being scored, so A can come back with more records
// and must not count toward the quorum of the next open batch.
func TestQuorumSkipsSubmitterParkedOnFlushedBatch(t *testing.T) {
	fc := newFakeClock()
	reg := telemetry.New()
	release := make(chan struct{})
	var first sync.Once
	b, err := New(Config{
		Policy: Policy{MaxBatch: 4, Linger: time.Hour},
		Batch: func(values [][]byte) ([][]byte, error) {
			first.Do(func() { <-release })
			return echoBatch(values)
		},
		Metrics: reg,
		clock:   fc.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	defer b.Register()()
	defer b.Register()()

	a := submit(t, b, "a0")
	stillOpen(t, b, 1)
	// Unregistered callers fill A's batch; its leader flush blocks.
	var fillers sync.WaitGroup
	for i := range 3 {
		fillers.Add(1)
		go func() {
			defer fillers.Done()
			if _, err := b.Do([]byte(fmt.Sprintf("d%d", i))); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, "the fillers cut A's batch by size", func() bool {
		return b.pendingLen() == 0 && reg.Counter(metricSizeFlush).Value() == 1
	})
	bDone := submit(t, b, "b0")
	stillOpen(t, b, 1) // A is parked on the flushed batch: no quorum
	close(release)
	fillers.Wait()
	<-a
	fc.fireLingerUntil(bDone)
	if got, want := flushCounts(reg), "size=1 quorum=0 linger=1"; got != want {
		t.Fatalf("flushes %s, want %s", got, want)
	}
}

// TestUnregisteredDoCutsOnlyBySizeOrLinger: plain Do callers never count
// toward a quorum, with or without a registered submitter idling beside
// them, and deregistering the last submitter ships nothing either.
func TestUnregisteredDoCutsOnlyBySizeOrLinger(t *testing.T) {
	fc := newFakeClock()
	reg := telemetry.New()
	b, err := New(Config{Policy: Policy{MaxBatch: 16, Linger: time.Hour}, Batch: echoBatch, Metrics: reg, clock: fc.Clock()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	deregister := b.Register()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Do([]byte(fmt.Sprintf("d%d", i))); err != nil {
				t.Error(err)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	stillOpen(t, b, 2)
	deregister()
	stillOpen(t, b, 2)
	fc.fireLingerUntil(done)
	if got, want := flushCounts(reg), "size=0 quorum=0 linger=1"; got != want {
		t.Fatalf("flushes %s, want %s", got, want)
	}
}

// TestDeregisterCompletesQuorum: when the one submitter not waiting on
// the open batch deregisters, everyone left is waiting, and the batch
// ships at once.
func TestDeregisterCompletesQuorum(t *testing.T) {
	fc := newFakeClock()
	reg := telemetry.New()
	b, err := New(Config{Policy: Policy{MaxBatch: 16, Linger: time.Hour}, Batch: echoBatch, Metrics: reg, clock: fc.Clock()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	defer b.Register()()
	deregisterB := b.Register()
	a := submit(t, b, "a0", "a1")
	stillOpen(t, b, 2)
	deregisterB()
	<-a
	if got, want := flushCounts(reg), "size=0 quorum=1 linger=0"; got != want {
		t.Fatalf("flushes %s, want %s", got, want)
	}
	if got := reg.Gauge(metricSubmitters).Value(); got != 1 {
		t.Fatalf("%s = %d after one of two deregistered, want 1", metricSubmitters, got)
	}
}
