// Package fixture is the fixture module's root package, its API:
// deadexport holds each exported name to a caller in cmd/, examples/ or
// the nested bench module.
package fixture

import "fixture.test/internal/deadexp"

// Handle is named by no caller, but examples/demo calls Open, whose
// signature spells it.
type Handle = deadexp.Handle

// Open is the example's way in.
func Open() *Handle { return deadexp.Open() }

// TestsOnly is reached only by the root package's own test.
func TestsOnly() int { return 1 } // want deadexport
