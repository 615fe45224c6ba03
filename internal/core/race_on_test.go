//go:build race

package core

// raceEnabled reports whether the race detector is active; exact
// allocation counts are skipped under -race, where sync.Pool drops
// buffers at random and instrumentation allocates.
const raceEnabled = true
