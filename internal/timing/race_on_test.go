//go:build race

package timing

// raceEnabled reports that the race detector is slowing this build
// several-fold, so wall-clock expectations do not apply.
const raceEnabled = true
