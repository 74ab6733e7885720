//go:build race

package ft_test

// raceEnabled reports whether the race detector instruments this
// build. The detector deliberately randomizes sync.Pool reuse, so
// allocation-count assertions are meaningless under it.
const raceEnabled = true
