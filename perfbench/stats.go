package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample such that at least a q share of the samples are at or
// below it. It sorts xs in place and returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	// The epsilon keeps q·n that is an integer in exact arithmetic (0.9·10)
	// from rounding up past it in floating point.
	k := int(math.Ceil(q*float64(len(xs))-1e-9)) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

// median is the nearest-rank median (the lower middle for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// setOps records the end-to-end op metrics from the op times in
// milliseconds and the wall time they were completed in.
func setOps(rep *report, opMs []float64, elapsed time.Duration) {
	n := len(opMs)
	rep.set("op_p50_ms", median(opMs), n)
	rep.set("op_p90_ms", quantile(opMs, 0.9), n)
	rep.set("ops_per_s", float64(n)/elapsed.Seconds(), n)
}

// A run sets up at least minSetups times and for at least minSetupTime,
// so that a set-up of a few milliseconds still yields a steady median, and
// at most maxSetups times.
const (
	minSetups    = 5
	minSetupTime = time.Second
	maxSetups    = 200
)

// measureSetup runs build repeatedly, closing all but the last result,
// records the median time as setup_s and returns the last result.
func measureSetup[T any](rep *report, build func() (T, error), close func(T)) (T, error) {
	var last T
	var times []float64
	var total time.Duration
	for i := 0; i < maxSetups && (i < minSetups || total < minSetupTime); i++ {
		if i > 0 {
			close(last)
		}
		runtime.GC() // start every set-up from the same heap state
		var err error
		d := timed(func() { last, err = build() })
		if err != nil {
			return last, err
		}
		times = append(times, d.Seconds())
		total += d
	}
	rep.set("setup_s", median(times), len(times))
	runtime.GC() // timing starts from a collected heap
	return last, nil
}

// memAcc sums allocation and GC work over the measured stretches of a run.
type memAcc struct {
	before runtime.MemStats
	alloc  uint64
	gc     uint32
	ops    int
}

func (m *memAcc) start() { runtime.ReadMemStats(&m.before) }

// stop closes a stretch in which ops operations ran.
func (m *memAcc) stop(ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.alloc += after.TotalAlloc - m.before.TotalAlloc
	m.gc += after.NumGC - m.before.NumGC
	m.ops += ops
}

// report records runtime.alloc_mb and runtime.gc_cycles per op.
func (m *memAcc) report(rep *report) {
	if m.ops == 0 {
		return
	}
	rep.set("runtime.alloc_mb", float64(m.alloc)/float64(m.ops)/(1<<20), m.ops)
	rep.set("runtime.gc_cycles", float64(m.gc)/float64(m.ops), m.ops)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// setLiveHeap records live_heap_mb: the heap still reachable after a full
// collection at the end of the timed run — inputs, caches and service
// state. The caller keeps that state alive across the call. The process's
// peak RSS moves by a quarter between runs of one seed with the collector's
// timing, so it is a per-layer figure (runtime.max_rss_mb) instead.
func setLiveHeap(rep *report) {
	// The second collection empties the sync.Pool victim caches, whose
	// contents depend on when the collector last ran.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.set("live_heap_mb", float64(m.HeapAlloc)/(1<<20), 1)
}
