package param

// EquivalenceGraphs exposes the per-family test graphs to the external
// test package, which imports bnp (itself built on this package).
var EquivalenceGraphs = equivalenceGraphs
