package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dsched"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// computeWorkload runs the paper's seven benchmarks at their default
// sizes, one job per op, each through core.Run on procs threads. The
// seed chooses the job order of every round; each round runs each
// benchmark once.
type computeWorkload struct{}

type computeFixture struct {
	e      env
	rng    *rng
	specs  []workload.Spec
	want   map[string]uint64 // checksum from internal/baseline
	wantVT map[string]int64  // VT of the warm-up run

	vt, insns int64
	sched     dsched.Stats
	hash      uint64
}

func (computeWorkload) setup(e env) (fixture, error) {
	f := &computeFixture{
		e:      e,
		rng:    newRNG(e.seed),
		specs:  workload.Specs(),
		want:   make(map[string]uint64),
		wantVT: make(map[string]int64),
		hash:   fnvOffset,
	}
	bases := baseline.Baselines()
	for _, s := range f.specs {
		base, ok := bases[s.Name]
		if !ok {
			return nil, fmt.Errorf("compute: no baseline for %s", s.Name)
		}
		f.want[s.Name] = base(e.procs, s.DefaultSize)
	}
	// Warm-up: one run of each job, which also fixes the VT every later
	// run of it must repeat.
	for _, s := range f.specs {
		res, value, _ := f.job(s)
		if res.Status != kernel.StatusHalted {
			return nil, fmt.Errorf("compute: %s warm-up stopped %v: %v", s.Name, res.Status, res.Err)
		}
		if value != f.want[s.Name] {
			return nil, gatef("compute: %s checksum %#x, baseline %#x", s.Name, value, f.want[s.Name])
		}
		f.wantVT[s.Name] = res.VT
	}
	return f, nil
}

// job runs one benchmark on a fresh machine. Blackscholes runs through
// the deterministic scheduler so its round statistics can be reported.
func (f *computeFixture) job(s workload.Spec) (kernel.RunResult, uint64, dsched.Stats) {
	var value uint64
	var st dsched.Stats
	res := core.Run(core.Options{
		Kernel:     kernel.Config{CPUsPerNode: f.e.procs},
		SharedSize: s.SharedBytes(s.DefaultSize),
	}, func(rt *core.RT) uint64 {
		if s.Name == "blackscholes" {
			value, st = workload.BlackscholesSched(rt, f.e.procs, s.DefaultSize,
				dsched.Config{Quantum: dsched.DefaultQuantum})
		} else {
			value = s.Det(rt, f.e.procs, s.DefaultSize)
		}
		return value
	})
	return res, value, st
}

func (f *computeFixture) round(rec *recorder) error {
	for _, i := range f.rng.perm(len(f.specs)) {
		s := f.specs[i]
		err := rec.op("compute."+s.Name, func(op int32) error {
			var res kernel.RunResult
			var value uint64
			var st dsched.Stats
			rec.call("core.Run", op, func() error {
				res, value, st = f.job(s)
				return nil
			})
			if res.Status != kernel.StatusHalted {
				return fmt.Errorf("compute: %s stopped %v: %v", s.Name, res.Status, res.Err)
			}
			if value != f.want[s.Name] {
				return gatef("compute: %s checksum %#x, baseline %#x", s.Name, value, f.want[s.Name])
			}
			if res.VT != f.wantVT[s.Name] {
				return gatef("compute: %s VT %d, first run %d", s.Name, res.VT, f.wantVT[s.Name])
			}
			f.vt += res.VT
			f.insns += res.Insns
			f.sched.Rounds += st.Rounds
			f.sched.ThreadQuanta += st.ThreadQuanta
			f.sched.SyncSkipped += st.SyncSkipped
			f.sched.TablesResynced += st.TablesResynced
			f.sched.Merge.Add(st.Merge)
			f.hash = fold(f.hash, s.Name, value, uint64(res.VT), uint64(res.Insns))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (f *computeFixture) verify() error { return nil }

func (f *computeFixture) layers(g *region) map[string]float64 {
	ops := g.ops
	m := map[string]float64{
		"kernel.vt_per_op":              per(float64(f.vt), ops),
		"kernel.insns_per_op":           per(float64(f.insns), ops),
		"dsched.rounds_per_op":          per(float64(f.sched.Rounds), ops),
		"dsched.tables_resynced_per_op": per(float64(f.sched.TablesResynced), ops),
		"dsched.pages_compared_per_op":  per(float64(f.sched.Merge.PagesCompared), ops),
	}
	if f.sched.ThreadQuanta > 0 {
		m["dsched.sync_skip_ratio"] = float64(f.sched.SyncSkipped) / float64(f.sched.ThreadQuanta)
	}
	return m
}

func (f *computeFixture) digest() uint64 { return f.hash }
func (f *computeFixture) close()         {}

// rng is the benchmark's seeded generator (splitmix64): every input a
// workload generates comes from it, so a seed fixes the inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

const fnvOffset = 14695981039346656037

// fold mixes a name and values into a running FNV-1a digest.
func fold(h uint64, name string, vals ...uint64) uint64 {
	w := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(h >> (8 * i))
	}
	w.Write(b[:])
	w.Write([]byte(name))
	for _, v := range vals {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		w.Write(b[:])
	}
	return w.Sum64()
}
