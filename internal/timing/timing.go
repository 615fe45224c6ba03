// Package timing applies modelled time: it is the one place product code
// waits for a delay that stands in for something this host does not
// have — the paper's LAN hop (netsim), the accelerator's transfer
// (gpu), an injected fault's hold (broker), a retry back-off
// (resilience) — or for the instant the load generator owes the world
// its next event (loadgen).
//
// A runtime timer cannot do this on its own: every wait shorter than a
// millisecond parks in the netpoller, which rounds it up to whole
// milliseconds, so 20 µs, 200 µs and 470 µs all come back after ≈ 1.1 ms
// (DESIGN.md §5). WaitUntil therefore waits for a deadline in three
// steps: a runtime timer while more than timerFloor remains, an OS-level
// sleep until spinTail before the deadline, and a spin on the monotonic
// clock for that tail. The spin never yields: a yield loop hands the
// core to every runnable goroutine and comes back whenever the scheduler
// gets round to it, which on two cores costs the pipeline more than it
// saves the wait.
//
// The package imports only the standard library and sits below the
// base tier, so every base package may use it (crayfishlint layering).
package timing

import "time"

const (
	// timerFloor is the remainder above which a runtime timer is used:
	// the timer fires up to ≈ 1.1 ms late, so it is set to end this far
	// before the deadline.
	timerFloor = 1300 * time.Microsecond
	// spinTail is how long before the deadline the OS-level sleep ends:
	// enough for its wake-up latency (tens of µs on a virtualised host,
	// even with the timer slack at 1 ns), little enough to keep the spin
	// cheap.
	spinTail = 80 * time.Microsecond
)

// WaitUntil blocks until deadline on the monotonic clock and reports
// true, or reports false once stop is closed (a nil stop never closes).
// A deadline already past returns at once. Within the last timerFloor
// the wait is not interruptible, so stop is seen at most that late.
func WaitUntil(deadline time.Time, stop <-chan struct{}) bool {
	if d := time.Until(deadline); d > timerFloor {
		t := time.NewTimer(d - timerFloor)
		select {
		case <-stop:
			t.Stop()
			return false
		case <-t.C:
		}
	}
	if d := time.Until(deadline); d > spinTail {
		osSleep(d - spinTail)
	}
	for time.Until(deadline) > 0 {
	}
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

// Sleep blocks for d of modelled time: WaitUntil a deadline d from now.
func Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	//lint:allow clockdiscipline the deadline of the modelled wait itself
	WaitUntil(time.Now().Add(d), nil)
}
