// Package timing seeds a layering violation below the base tier: a leaf
// package importing a module-internal package. Base packages may import
// it (see ../tensor).
package timing

import (
	"time"

	"fixture.test/internal/sps/fakeengine" // want layering
)

// Engine drags a higher layer into the leaf tier.
func Engine() string { return fakeengine.Name() }

// Sleep stands in for the modelled-time wait.
func Sleep(d time.Duration) { _ = d }
