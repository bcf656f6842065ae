//go:build race

package poly

// raceEnabled reports a -race build. The race runtime drops sync.Pool
// Puts at random, so a pooled get/put cycle may allocate there.
const raceEnabled = true
