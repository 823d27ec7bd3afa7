//go:build !race

package tvq_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
