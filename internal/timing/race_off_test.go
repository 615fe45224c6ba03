//go:build !race

package timing

const raceEnabled = false
