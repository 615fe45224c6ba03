//go:build !linux

package timing

import "time"

// osSleep falls back to the runtime's sleep where nanosleep is not wired
// up. Where that sleep rounds to milliseconds, a sub-millisecond wait
// overshoots as a runtime timer does; the accuracy contract
// (TestWaitAccuracy) is pinned on linux.
func osSleep(d time.Duration) {
	//lint:allow clockdiscipline the OS-level step of the modelled wait
	time.Sleep(d)
}
