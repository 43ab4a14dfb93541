//go:build race

package core_test

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of the items put back, so pooled allocation counts do not hold.
const raceEnabled = true
