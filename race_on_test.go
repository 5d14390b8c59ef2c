//go:build race

package repro_test

// raceEnabled reports a -race build: the race runtime drops sync.Pool
// entries at random, so allocation ceilings do not hold under it.
const raceEnabled = true
