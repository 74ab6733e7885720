//go:build !race

package param

// raceEnabled reports whether the race detector instruments this
// build.
const raceEnabled = false
