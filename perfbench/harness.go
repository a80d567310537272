package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// env is what a workload's set-up receives: the seed its inputs are
// generated from, the parallelism every layer is sized to, and the
// tracer (nil in an untraced run).
type env struct {
	seed  uint64
	procs int
	tr    *tracer
}

// benchmark is one workload: it builds fixtures. Set-up is repeated
// several times per run and timed, so it must start from nothing each
// time.
type benchmark interface {
	setup(e env) (fixture, error)
}

// fixture is one set-up's state. A timed region calls round until the
// run's time is up; each round is the same fixed, seeded amount of
// work, so per-op counts repeat exactly for a seed.
type fixture interface {
	// round runs one round of ops, timing each through rec and
	// checking each result against the expectations set-up computed.
	round(rec *recorder) error
	// verify runs the gates that need the whole timed region.
	verify() error
	// layers returns the fixture's per-layer metrics over the timed
	// region g.
	layers(g *region) map[string]float64
	// digest folds every op result in op order, for comparing runs.
	digest() uint64
	close()
}

// gateError is a correctness failure: a result that differs from its
// expectation. It fails the run rather than slowing it down.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "gate: " + e.msg }

func gatef(format string, args ...any) error { return &gateError{fmt.Sprintf(format, args...)} }

// recorder times ops. Ops may run concurrently (serve's clients).
type recorder struct {
	tr      *tracer
	runSpan int32
	mu      sync.Mutex
	lat     []float64 // per-op latency in ms, completion order
	failed  int
	peakMem uint64 // highest memInUse seen at an op end this round
}

// op times fn as one op; fn receives the op's span so the calls it
// makes can be parented on it.
func (r *recorder) op(name string, fn func(span int32) error) error {
	id := r.tr.open(name, r.runSpan)
	start := time.Now()
	err := fn(id)
	d := time.Since(start)
	r.tr.close(id, 0)
	mem := memInUse()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat = append(r.lat, float64(d)/1e6)
	r.peakMem = max(r.peakMem, mem)
	if err != nil {
		r.failed++
	}
	return err
}

// call times one call the benchmark makes into a layer from inside an
// op, as a child span of the op.
func (r *recorder) call(name string, parent int32, fn func() error) error {
	id := r.tr.open(name, parent)
	err := fn()
	r.tr.close(id, 0)
	return err
}

// roundStat is one round's share of a timed region.
type roundStat struct {
	ops       int
	wall, cpu time.Duration
	peakMem   uint64 // bytes
}

// region is the outcome of one timed region.
type region struct {
	ops, failed int
	rounds      []roundStat
	wall        time.Duration
	cpu         time.Duration
	lat         []float64
	from        int32 // first span of the region (the run span)
	err         error // first op error or gate failure, if any
}

// cpuMsPerOp is the region's mean CPU time per op.
func (g region) cpuMsPerOp() float64 { return per(float64(g.cpu)/1e6, g.ops) }

// perRound evaluates f on every round. End-to-end rates are reported
// as the median over rounds, so a burst of load from outside the
// process moves a few rounds, not the result.
func (g region) perRound(f func(roundStat) float64) []float64 {
	out := make([]float64, len(g.rounds))
	for i, r := range g.rounds {
		out[i] = f(r)
	}
	return out
}

// blockOps is the fewest ops a latency block holds: one round of serve
// or build, two of compute. Latency percentiles are taken per block and
// reported as the median over blocks, so, as with the rates, a burst of
// load from outside the process moves a few blocks, not the result; a
// block spans well under a second, shorter than such bursts.
const blockOps = 12

// blocks splits the region's latencies (completion order) into blocks
// of consecutive whole rounds holding at least blockOps ops each; a
// short remainder joins the last block.
func (g region) blocks() [][]float64 {
	var ends []int
	start, i := 0, 0
	for _, r := range g.rounds {
		i += r.ops
		if i-start >= blockOps {
			ends = append(ends, i)
			start = i
		}
	}
	if len(ends) == 0 {
		return [][]float64{g.lat}
	}
	ends[len(ends)-1] = len(g.lat)
	out := make([][]float64, len(ends))
	start = 0
	for k, end := range ends {
		out[k] = g.lat[start:end]
		start = end
	}
	return out
}

// latency is the median over blocks of each block's percentile p.
func (g region) latency(p float64) float64 {
	var v []float64
	for _, b := range g.blocks() {
		v = append(v, percentile(b, p))
	}
	return median(v)
}

// runRegion runs whole rounds of fx until at least seconds have passed
// (or, with rounds > 0, exactly that many rounds) and measures them.
func runRegion(fx fixture, tr *tracer, seconds float64, rounds int) region {
	rec := &recorder{tr: tr}
	rec.runSpan = tr.open("run", -1)
	cpu0 := cpuTime()
	t0 := time.Now()
	g := region{from: max(rec.runSpan, 0)}
	for {
		ops, cpu, start := len(rec.lat), cpuTime(), time.Now()
		if err := fx.round(rec); err != nil {
			g.err = err
			break
		}
		g.rounds = append(g.rounds, roundStat{ops: len(rec.lat) - ops, wall: time.Since(start),
			cpu: cpuTime() - cpu, peakMem: rec.peakMem})
		rec.peakMem = 0
		if rounds > 0 && len(g.rounds) >= rounds {
			break
		}
		if rounds <= 0 && time.Since(t0).Seconds() >= seconds {
			break
		}
	}
	g.wall = time.Since(t0)
	g.cpu = cpuTime() - cpu0
	tr.close(rec.runSpan, 0)
	g.lat, g.failed = rec.lat, rec.failed
	g.ops = len(g.lat)
	return g
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memInUse is the memory the Go runtime holds from the OS and has not
// released back: heap (live and not yet collected), stacks and runtime
// metadata. It tracks the process's resident set without the sampling
// noise of the kernel's lifetime high-water mark.
func memInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// percentile is the nearest-rank percentile p (0..100] of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
