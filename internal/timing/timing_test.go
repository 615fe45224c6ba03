package timing

import (
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

// contractAttempts is how many sets of 200 waits one target may take to
// meet the contract. The shared host this runs on steals its vCPUs for
// milliseconds at a time, and a stolen wait lands in p99 whatever waited;
// a defect of the primitive (a runtime timer's 1.1 ms floor, a missing
// spin tail, a sleep that ends late) misses in every set, so each failed
// set is logged and only a target that fails all of them fails the test.
const contractAttempts = 5

// TestWaitAccuracy is the primitive's contract: over 200 waits at each
// modelled delay from 20 µs to 2 ms, the applied delay is within 10 % of
// the target at p50 and within 25 % at p99. A runtime timer misses it by
// 50× at 20 µs and 5.5× at 200 µs.
//
// The p99 half holds only while the waiting thread has a core to itself:
// beside other test binaries on two cores the kernel preempts the spin,
// and p99 measures the scheduler. So `go test ./...` judges p50 and
// scripts/check.sh runs the test alone with CRAYFISH_WAIT_P99=1 to judge
// both.
func TestWaitAccuracy(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the OS-level step is nanosleep on linux only")
	}
	if raceEnabled {
		t.Skip("the race detector slows the clock reads the spin makes")
	}
	judgeP99, want := os.Getenv("CRAYFISH_WAIT_P99") == "1", "within 10 %% at p50"
	if judgeP99 {
		want += " and 25 %% at p99"
	}
	for _, target := range []time.Duration{
		20 * time.Microsecond, 200 * time.Microsecond, 470 * time.Microsecond,
		time.Millisecond, 2 * time.Millisecond,
	} {
		t.Run(target.String(), func(t *testing.T) {
			for attempt := 1; ; attempt++ {
				p50, p99 := applied(t, target, 200)
				r50, r99 := float64(p50)/float64(target), float64(p99)/float64(target)
				msg := "p50 %v (%.3f×), p99 %v (%.3f×) in set %d"
				if r50 >= 0.9 && r50 <= 1.1 && (!judgeP99 || r99 >= 0.75 && r99 <= 1.25) {
					t.Logf(msg, p50, r50, p99, r99, attempt)
					return
				}
				if attempt == contractAttempts {
					t.Fatalf(msg+": want "+want+" in one of %d sets", p50, r50, p99, r99, attempt, contractAttempts)
				}
				t.Logf(msg+": outside the contract, measuring again", p50, r50, p99, r99, attempt)
			}
		})
	}
}

// applied waits n times for target and returns the p50 and p99 of the
// delay each wait applied.
func applied(t *testing.T, target time.Duration, n int) (p50, p99 time.Duration) {
	d := make([]time.Duration, n)
	for i := range d {
		start := time.Now()
		if !WaitUntil(start.Add(target), nil) {
			t.Fatal("a wait without a stop channel reported stopped")
		}
		d[i] = time.Since(start)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[n/2], d[n*99/100]
}

// TestWaitUntilStop: a closed stop channel ends a wait that still has a
// runtime timer to run, and is reported after a short wait too; a
// deadline already past returns at once.
func TestWaitUntilStop(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	start := time.Now()
	if WaitUntil(start.Add(time.Hour), stop) {
		t.Fatal("an hour's wait survived a closed stop channel")
	}
	if WaitUntil(start.Add(100*time.Microsecond), stop) {
		t.Fatal("a short wait ended with stop closed but reported true")
	}
	if !WaitUntil(start.Add(-time.Second), nil) {
		t.Fatal("a past deadline reported stopped")
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("stopped and past waits took %v", el)
	}
}
