// Package lockuse seeds lockdiscipline violations: two-mutex
// acquisition-order cycles, a self-relock, and blocking operations
// (send, receive-only select, sleep, modelled sleep, WaitGroup.Wait,
// RPC) inside critical sections — plus the clean shapes (copy-then-send,
// select-with-default, consistent nesting, and the cluster layer's
// election nesting and high-watermark wait) that must stay silent.
package lockuse

import (
	"sync"
	"time"

	"fixture.test/internal/grpcish"
	"fixture.test/internal/timing"
)

type table struct {
	mu   sync.Mutex
	rows map[string]int
}

type journal struct {
	mu      sync.Mutex
	entries []string
}

// Promote nests journal.mu inside table.mu — fine on its own, but
// Audit below nests them the other way around, closing the cycle.
func Promote(t *table, j *journal, k string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j.mu.Lock()
	j.entries = append(j.entries, k)
	j.mu.Unlock()
	t.rows[k]++
}

// Audit nests table.mu inside journal.mu: the opposite order to
// Promote. The cycle diagnostic anchors here (the journal→table edge
// sorts first).
func Audit(t *table, j *journal) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	t.mu.Lock() // want lockdiscipline
	n := len(t.rows)
	t.mu.Unlock()
	return n
}

// Relock takes the same mutex twice on one path.
func Relock(t *table) {
	t.mu.Lock()
	t.mu.Lock() // want lockdiscipline
	t.rows["twice"]++
	t.mu.Unlock()
	t.mu.Unlock()
}

// SendUnderLock sends on a channel inside the critical section.
func SendUnderLock(t *table, ch chan int) {
	t.mu.Lock()
	ch <- len(t.rows) // want lockdiscipline
	t.mu.Unlock()
}

// PollUnderLock blocks on a select with no default while holding the
// lock.
func PollUnderLock(t *table, ch chan int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	select { // want lockdiscipline
	case v := <-ch:
		return v
	}
}

// SleepUnderLock holds the lock across a sleep.
func SleepUnderLock(j *journal) {
	j.mu.Lock()
	defer j.mu.Unlock()
	time.Sleep(time.Millisecond) // want lockdiscipline
}

// ModelledSleepUnderLock holds the lock across a modelled delay.
func ModelledSleepUnderLock(j *journal) {
	j.mu.Lock()
	defer j.mu.Unlock()
	timing.Sleep(time.Millisecond) // want lockdiscipline
}

// WaitUnderLock holds the lock across a WaitGroup join.
func WaitUnderLock(t *table, wg *sync.WaitGroup) {
	t.mu.Lock()
	defer t.mu.Unlock()
	wg.Wait() // want lockdiscipline
}

// CallUnderLock holds the lock across an RPC.
func CallUnderLock(t *table) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return grpcish.Invoke("scorer/Predict") // want lockdiscipline
}

// PacedRetire documents a justified hold across a bounded pause.
func PacedRetire(j *journal) {
	j.mu.Lock()
	defer j.mu.Unlock()
	time.Sleep(time.Microsecond) //lint:allow lockdiscipline fixture: bounded pacing pause, justified hold
	j.entries = j.entries[:0]
}

// Snapshot is the blessed shape: copy under the lock, send after
// releasing it.
func Snapshot(t *table, ch chan int) {
	t.mu.Lock()
	n := len(t.rows)
	t.mu.Unlock()
	ch <- n
}

// TryDrain never blocks under the lock: the select has a default.
func TryDrain(t *table, ch chan int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case v := <-ch:
		t.rows["last"] = v
	default:
	}
}

// seat and replica mimic the cluster control plane: the controller
// seat's mutex nests outside each replica's, never the other way.
type seat struct {
	mu      sync.Mutex
	leaders map[int]int
}

type replica struct {
	mu  sync.Mutex
	end int
}

// Elect is the clean election nesting — seat.mu outside replica.mu,
// the one order every control-plane path uses: longest log in the
// in-sync set wins, ties to the lowest id.
func Elect(s *seat, replicas []*replica, p int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, bestEnd := -1, -1
	for i, r := range replicas {
		r.mu.Lock()
		end := r.end
		r.mu.Unlock()
		if end > bestEnd {
			best, bestEnd = i, end
		}
	}
	s.leaders[p] = best
}

// Announce nests seat.mu inside replica.mu — a replica upcalling into
// the control plane while holding its own state, the opposite order to
// Elect. The cycle diagnostic anchors here (the replica→seat edge
// sorts first).
func Announce(s *seat, r *replica, p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.mu.Lock() // want lockdiscipline
	s.leaders[p] = r.end
	s.mu.Unlock()
}

// hwState mimics a partition's replication state: the high-watermark
// plus the signal channel its advance closes and re-arms.
type hwState struct {
	mu   sync.Mutex
	hw   int
	hwCh chan struct{}
}

// AwaitHW is the blessed ack-wait shape: capture the signal channel
// under the lock, release, then block — the advance path can take the
// lock to close and re-arm the channel.
func AwaitHW(st *hwState, offset int) {
	for {
		st.mu.Lock()
		if st.hw > offset {
			st.mu.Unlock()
			return
		}
		ch := st.hwCh
		st.mu.Unlock()
		<-ch
	}
}

// AwaitHWUnderLock blocks on the signal while still holding the state
// lock — deadlock: the advance path needs the same lock to close the
// channel.
func AwaitHWUnderLock(st *hwState, offset int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.hw <= offset {
		<-st.hwCh // want lockdiscipline
	}
}
