// Package tensor seeds a layering violation: a base package importing a
// module-internal package other than a leaf package. Its import of the
// leaf package timing is allowed.
package tensor

import (
	"fixture.test/internal/sps/fakeengine" // want layering
	"fixture.test/internal/timing"
)

// UsesEngine drags a higher layer into a base package, and reaches below
// the base tier as netsim and gpu do.
func UsesEngine() string { return fakeengine.Name() + timing.Engine() }
