package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// outcome is what one round of a workload's timed body produced.
type outcome struct {
	ops, failed int64
	digest      [sha256.Size]byte
	// meanNSL is the geometric mean of the round's normalized schedule
	// lengths.
	meanNSL float64
	// faulty counts the round's executions under a fault model, survived
	// those that met their deadline.
	faulty, survived int64
}

// geoMean accumulates a geometric mean. The arithmetic mean of NSL is
// dominated by the few high-CCR graphs whose NSL is largest, and moves
// with the seed far more.
type geoMean struct {
	logSum float64
	n      int
}

func (g *geoMean) add(x float64) { g.logSum += math.Log(x); g.n++ }

func (g *geoMean) value() float64 { return math.Exp(g.logSum / float64(g.n)) }

// digester hashes op results into a round digest.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digester) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d digester) sum() (s [sha256.Size]byte) {
	copy(s[:], d.h.Sum(nil))
	return s
}

// processCPU returns the user plus system CPU time of the process, which
// hypervisor steal does not inflate.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the aggregate line of /proc/stat: total and steal ticks.
type cpuStat struct{ total, steal int64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	var st cpuStat
	// cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(string(f[i]), 10, 64)
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// stealFrac is the share of all CPU ticks between two readings that the
// hypervisor gave to other guests.
func stealFrac(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stealTime is the time the hypervisor withheld from this guest's CPUs
// between two readings; /proc/stat counts in USER_HZ ticks, which
// Linux fixes at 100 a second for user space.
func stealTime(a, b cpuStat) time.Duration {
	return time.Duration(b.steal-a.steal) * 10 * time.Millisecond
}

// gcCPU reads the cumulative GC CPU time, total CPU time and GC cycle
// count the runtime accounts for.
func gcCPU() (gc, total float64, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// roundStat is the measured cost of one round of the timed body.
type roundStat struct {
	wall, cpu time.Duration
	steal     time.Duration // hypervisor steal during the round
	alloc     uint64
	ops       int64
}

// timing is the measurement of a timed body: per-round costs and
// outcomes plus process diagnostics over the whole body.
type timing struct {
	rounds   []roundStat
	outcomes []outcome
	steal    float64
	gcCycles uint64
	gcFrac   float64
}

// timeRounds runs rounds of the body until at least d of wall time has
// passed, and at least one round, timing each. Every round starts from
// a collected heap, so no round pays for garbage an earlier one left.
func timeRounds(run func() outcome, d time.Duration) timing {
	var t timing
	stat0 := readCPUStat()
	gc0, tot0, cyc0 := gcCPU()
	start := time.Now()
	for len(t.rounds) == 0 || time.Since(start) < d {
		runtime.GC()
		s0, a0, c0, w0 := readCPUStat(), totalAlloc(), processCPU(), time.Now()
		o := run()
		w1, c1, a1, s1 := time.Now(), processCPU(), totalAlloc(), readCPUStat()
		t.rounds = append(t.rounds, roundStat{wall: w1.Sub(w0), cpu: c1 - c0, steal: stealTime(s0, s1), alloc: a1 - a0, ops: o.ops})
		t.outcomes = append(t.outcomes, o)
	}
	gc1, tot1, cyc1 := gcCPU()
	t.steal = stealFrac(stat0, readCPUStat())
	t.gcCycles = cyc1 - cyc0
	if tot1 > tot0 {
		t.gcFrac = (gc1 - gc0) / (tot1 - tot0)
	}
	return t
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (t timing) medianOf(f func(roundStat) float64) float64 {
	xs := make([]float64, len(t.rounds))
	for i, r := range t.rounds {
		xs[i] = f(r)
	}
	return median(xs)
}
