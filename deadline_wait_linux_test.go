package crayfish_test

import (
	"sort"
	"syscall"
	"testing"
	"time"

	"crayfish/internal/timing"
)

// BenchmarkDeadlineWait books what the modelled-time wait
// (timing.WaitUntil) costs: per wait at 20 µs, 200 µs and 2 ms, how late
// it ended at p50 and p99 (err_p50_us, err_p99_us: applied − modelled)
// and the process CPU it burned (cpu_us: user + system). A runtime timer
// ends all three about 1.1 ms late on linux; the spin tail is what the CPU
// column pays for being on time.
func BenchmarkDeadlineWait(b *testing.B) {
	for _, target := range []time.Duration{20 * time.Microsecond, 200 * time.Microsecond, 2 * time.Millisecond} {
		b.Run(target.String(), func(b *testing.B) {
			late := make([]time.Duration, b.N)
			cpu0 := cpuTime(b)
			b.ResetTimer()
			for i := range late {
				start := time.Now()
				timing.WaitUntil(start.Add(target), nil)
				late[i] = time.Since(start) - target
			}
			b.StopTimer()
			cpu := cpuTime(b) - cpu0
			sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
			b.ReportMetric(float64(late[len(late)/2])/1e3, "err_p50_us")
			b.ReportMetric(float64(late[len(late)*99/100])/1e3, "err_p99_us")
			b.ReportMetric(float64(cpu)/1e3/float64(b.N), "cpu_us")
		})
	}
}

// cpuTime is the CPU the process has used so far, user and system.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
