//go:build race

package param

// raceEnabled reports whether the race detector instruments this
// build. An instrumented build allocates more than a plain one, and the
// detector deliberately randomizes sync.Pool reuse, so allocation-count
// assertions are meaningless under it; tier-1 runs check them.
const raceEnabled = true
