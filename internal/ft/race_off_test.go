//go:build !race

package ft_test

// raceEnabled reports whether the race detector instruments this
// build.
const raceEnabled = false
