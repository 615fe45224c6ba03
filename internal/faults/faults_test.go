package faults

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"crayfish/internal/resilience"
)

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Rules: []Rule{{Topic: "", Kind: Drop}}},
		{Rules: []Rule{{Topic: "in", Kind: Crash}}},
		{Rules: []Rule{{Topic: "in", Kind: Delay}}},
		{Rules: []Rule{{Topic: "in", Kind: Drop, FromSeq: 5, ToSeq: 5}}},
		{Events: []Event{{Kind: Drop}}},
		{Events: []Event{{Kind: Crash, At: -time.Second}}},
		{Events: []Event{{Kind: ScorerError, At: 0}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated but should not", i)
		}
	}
	good := Plan{
		Seed:  1,
		Rules: []Rule{{Topic: "in", Kind: Drop, FromSeq: 2, ToSeq: 4}},
		Events: []Event{
			{At: time.Millisecond, Kind: Crash, Target: "daemon"},
			{At: 2 * time.Millisecond, Kind: Restart, Target: "daemon"},
			{At: 0, Kind: ScorerError, Duration: time.Millisecond},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := good.LastWindowEnd(); got != 2*time.Millisecond {
		t.Fatalf("LastWindowEnd = %v", got)
	}
}

func TestBrokerEventValidation(t *testing.T) {
	bad := []Plan{
		// Broker events must name the node they act on.
		{Events: []Event{{Kind: BrokerCrash, At: time.Millisecond}}},
		{Events: []Event{{Kind: BrokerRestart, At: time.Millisecond}}},
		// Restarts are point events; the window lives on the crash.
		{Events: []Event{{Kind: BrokerRestart, Target: "node-1", Duration: time.Millisecond}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated but should not", i)
		}
	}
	good := Plan{Events: []Event{
		{At: time.Millisecond, Kind: BrokerCrash, Target: "node-1", Duration: 4 * time.Millisecond},
		{At: 10 * time.Millisecond, Kind: BrokerCrash, Target: "node-2"},
		{At: 12 * time.Millisecond, Kind: BrokerRestart, Target: "node-2"},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBrokerCrashWindowExpansion(t *testing.T) {
	// A windowed broker-crash synthesises its own restart at
	// At+Duration; an explicit crash/restart pair passes through.
	inj, err := New(Plan{Events: []Event{
		{At: time.Millisecond, Kind: BrokerCrash, Target: "node-1", Duration: 4 * time.Millisecond},
		{At: 2 * time.Millisecond, Kind: BrokerCrash, Target: "node-2"},
		{At: 3 * time.Millisecond, Kind: BrokerRestart, Target: "node-2"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var fired []string
	record := func(e Event) {
		mu.Lock()
		fired = append(fired, string(e.Kind)+":"+e.Target)
		mu.Unlock()
	}
	done := make(chan struct{})
	inj.Handle(BrokerCrash, record)
	inj.Handle(BrokerRestart, func(e Event) {
		record(e)
		if e.Target == "node-1" { // the synthesised event fires last (t=5ms)
			close(done)
		}
	})
	inj.Start()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("broker events never fired")
	}
	inj.Stop()
	mu.Lock()
	got := fmt.Sprint(fired)
	mu.Unlock()
	want := fmt.Sprint([]string{
		"broker-crash:node-1", "broker-crash:node-2",
		"broker-restart:node-2", "broker-restart:node-1",
	})
	if got != want {
		t.Fatalf("fired = %v, want %v", got, want)
	}
	// Both the planned crash and the synthesised restart appear in the
	// canonical log with their planned offsets.
	log := FormatLog(inj.Log())
	for _, needle := range []string{"broker-crash", "broker-restart"} {
		if !containsStr(log, needle) {
			t.Fatalf("log missing %q:\n%s", needle, log)
		}
	}
}

func TestBrokerCrashWindowDeterministicLog(t *testing.T) {
	plan := Plan{
		Seed: 3,
		Events: []Event{
			{At: time.Millisecond, Kind: BrokerCrash, Target: "node-1", Duration: 3 * time.Millisecond},
		},
	}
	if got, want := plan.LastWindowEnd(), 4*time.Millisecond; got != want {
		t.Fatalf("LastWindowEnd = %v, want %v", got, want)
	}
	run := func() string {
		inj, err := newAt(plan, func() time.Time { return time.Time{} })
		if err != nil {
			t.Fatal(err)
		}
		inj.Start()
		inj.Stop()
		return FormatLog(inj.Log())
	}
	log1, log2 := run(), run()
	if log1 != log2 {
		t.Fatalf("fault logs differ:\n%s\nvs\n%s", log1, log2)
	}
	if len(log1) == 0 {
		t.Fatal("empty fault log")
	}
}

// containsStr avoids importing strings for one call.
func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

func TestMessageVerdicts(t *testing.T) {
	inj, err := New(Plan{
		Seed: 42,
		Rules: []Rule{
			{Topic: "in", Kind: Drop, FromSeq: 2, ToSeq: 4},
			{Topic: "in", Kind: Duplicate, FromSeq: 5, ToSeq: 11, every: 3},
			{Topic: "in", Kind: Delay, FromSeq: 20, ToSeq: 21, Delay: 100 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var drops, dups int
	var delay time.Duration
	for seq := 0; seq < 25; seq++ {
		v := inj.Message("in")
		if v.Drop {
			drops++
		}
		if v.Duplicate {
			dups++
		}
		delay += v.Delay
	}
	if drops != 2 {
		t.Fatalf("drops = %d, want 2", drops)
	}
	if dups != 2 { // seqs 5 and 8 (11 is out of window)
		t.Fatalf("dups = %d, want 2", dups)
	}
	if delay < 75*time.Millisecond || delay > 125*time.Millisecond {
		t.Fatalf("delay = %v, want 100ms ±25%%", delay)
	}
	// Other topics are untouched.
	if v := inj.Message("out"); v.Drop || v.Duplicate || v.Delay != 0 {
		t.Fatalf("unrelated topic got a verdict: %+v", v)
	}
	c := inj.CountsFor("in")
	if c[Drop] != 2 || c[Duplicate] != 2 || c[Delay] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestDropSuppressesOtherFaults(t *testing.T) {
	inj, err := New(Plan{Rules: []Rule{
		{Topic: "in", Kind: Drop, ToSeq: 1},
		{Topic: "in", Kind: Duplicate, ToSeq: 1},
		{Topic: "in", Kind: Delay, ToSeq: 1, Delay: time.Second},
	}})
	if err != nil {
		t.Fatal(err)
	}
	v := inj.Message("in")
	if !v.Drop || v.Duplicate || v.Delay != 0 {
		t.Fatalf("verdict = %+v, want pure drop", v)
	}
	if got := inj.CountsFor("in")[Duplicate]; got != 0 {
		t.Fatalf("duplicate counted on a dropped record: %d", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	plan := Plan{
		Seed: 7,
		Rules: []Rule{
			{Topic: "in", Kind: Drop, FromSeq: 10, ToSeq: 20, every: 2},
			{Topic: "in", Kind: Duplicate, FromSeq: 30, ToSeq: 35},
			{Topic: "in", Kind: Delay, FromSeq: 0, ToSeq: 50, every: 7, Delay: time.Millisecond},
		},
		Events: []Event{
			{At: 5 * time.Millisecond, Kind: Crash, Target: "tf-serving"},
			{At: 10 * time.Millisecond, Kind: Restart, Target: "tf-serving"},
			{At: time.Millisecond, Kind: ScorerError, Duration: 3 * time.Millisecond},
		},
	}
	run := func() (string, map[Kind]int, []time.Duration) {
		inj, err := newAt(plan, func() time.Time { return time.Time{} })
		if err != nil {
			t.Fatal(err)
		}
		inj.Start()
		var delays []time.Duration
		for seq := 0; seq < 60; seq++ {
			v := inj.Message("in")
			if v.Delay > 0 {
				delays = append(delays, v.Delay)
			}
		}
		inj.Stop()
		counts := inj.CountsFor("in")
		return FormatLog(inj.Log()), counts, delays
	}
	log1, counts1, delays1 := run()
	log2, counts2, delays2 := run()
	if log1 != log2 {
		t.Fatalf("fault logs differ:\n%s\nvs\n%s", log1, log2)
	}
	if len(log1) == 0 {
		t.Fatal("empty fault log")
	}
	if fmt.Sprint(counts1) != fmt.Sprint(counts2) {
		t.Fatalf("counts differ: %v vs %v", counts1, counts2)
	}
	if len(delays1) != len(delays2) {
		t.Fatalf("delay streams differ in length")
	}
	for i := range delays1 {
		if delays1[i] != delays2[i] {
			t.Fatalf("jitter not deterministic: %v vs %v", delays1[i], delays2[i])
		}
	}
}

func TestTimedEventsFireHandlersInOrder(t *testing.T) {
	inj, err := New(Plan{Events: []Event{
		{At: 10 * time.Millisecond, Kind: Restart, Target: "d"},
		{At: time.Millisecond, Kind: Crash, Target: "d"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []Kind
	done := make(chan struct{})
	inj.Handle(Crash, func(e Event) {
		mu.Lock()
		order = append(order, Crash)
		mu.Unlock()
	})
	inj.Handle(Restart, func(e Event) {
		mu.Lock()
		order = append(order, Restart)
		mu.Unlock()
		close(done)
	})
	inj.Start()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("events never fired")
	}
	inj.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != Crash || order[1] != Restart {
		t.Fatalf("order = %v", order)
	}
}

func TestScorerFaultWindow(t *testing.T) {
	var mu sync.Mutex
	now := time.Time{}
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	inj, err := newAt(Plan{Events: []Event{
		{At: 10 * time.Millisecond, Kind: ScorerError, Duration: 5 * time.Millisecond, Target: "scorer"},
	}}, clock)
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.ScorerFault(); got != nil {
		t.Fatalf("fault before Start: %v", got)
	}
	inj.Start()
	defer inj.Stop()
	if got := inj.ScorerFault(); got != nil {
		t.Fatalf("fault outside window: %v", got)
	}
	advance(12 * time.Millisecond)
	ferr := inj.ScorerFault()
	if ferr == nil {
		t.Fatal("no fault inside window")
	}
	if !resilience.IsRetryable(ferr) || !errors.Is(ferr, ErrInjected) {
		t.Fatalf("fault not typed/retryable: %v", ferr)
	}
	advance(10 * time.Millisecond) // t=22ms
	if got := inj.ScorerFault(); got != nil {
		t.Fatalf("fault after window: %v", got)
	}
}

func TestProxyRelayAndTear(t *testing.T) {
	// Echo server as the target.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(c net.Conn) {
				defer wg.Done()
				defer c.Close()
				buf := make([]byte, 1024)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}(c)
		}
	}()
	p, err := NewProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Plain relay round trip.
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := readFull(conn, buf); err != nil {
		t.Fatalf("relay read: %v", err)
	}
	if string(buf) != "hello" {
		t.Fatalf("relay echoed %q", buf)
	}
	_ = conn.Close()
	// Torn response: allow 3 bytes, then severed.
	p.TearAfter(3)
	conn2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Write([]byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 0, 8)
	tmp := make([]byte, 8)
	for {
		_ = conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn2.Read(tmp)
		got = append(got, tmp[:n]...)
		if err != nil {
			break
		}
	}
	if len(got) != 3 {
		t.Fatalf("torn read returned %d bytes (%q), want 3", len(got), got)
	}
	_ = conn2.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	_ = ln.Close()
	wg.Wait()
}

// readFull reads exactly len(buf) bytes with a deadline.
func readFull(c net.Conn, buf []byte) (int, error) {
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	total := 0
	for total < len(buf) {
		n, err := c.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// newAt builds an injector for plan that reads clock instead of the
// wall clock.
func newAt(plan Plan, clock func() time.Time) (*Injector, error) {
	inj, err := New(plan)
	if err == nil {
		inj.clock = clock
	}
	return inj, err
}
