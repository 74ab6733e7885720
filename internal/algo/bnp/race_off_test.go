//go:build !race

package bnp

// raceEnabled reports whether the race detector instruments this
// build.
const raceEnabled = false
