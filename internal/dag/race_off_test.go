//go:build !race

package dag

// raceEnabled reports whether the race detector instruments this
// build.
const raceEnabled = false
