package timing

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// osSleep sleeps d in the kernel. nanosleep keeps nanosecond resolution
// where the runtime's timers round to milliseconds, but the kernel lets
// a sleeping thread's wake-up slip by its timer slack, 50 µs by default:
// the thread's slack is set to 1 ns first (prctl is per thread and the
// goroutine may have moved, so on every call). A signal (the runtime
// preempts with SIGURG) ends the sleep early, and the remainder is slept
// again.
func osSleep(d time.Duration) {
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
