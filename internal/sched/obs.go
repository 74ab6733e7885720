package sched

import "repro/internal/obs"

// EST-cache metrics: queries answered and cache rows rebuilt. The
// difference is the number of O(1) fast-path answers the incremental
// arrival cache served without a predecessor scan.
var (
	estQueries  = obs.NewCounter("sched.est.query")
	estRebuilds = obs.NewCounter("sched.est.rebuild")
)
