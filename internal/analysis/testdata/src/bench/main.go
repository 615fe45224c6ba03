// Command bench stands for a nested benchmark module: a caller whose
// references are read by name.
package main

import "fixture.test/internal/deadexp"

func main() {
	var h deadexp.Handle
	h.Seek()
	_ = deadexp.BenchOnly()
}
