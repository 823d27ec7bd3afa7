//go:build race

package tvq_test

// raceEnabled reports whether the race detector instruments this build;
// allocation measurements skip under it, since it allocates on its own.
const raceEnabled = true
