package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/castore"
	"repro/internal/serve"
)

// serveWorkload is a closed loop against one serve.Server: clients
// each open a session, run it to completion, close it, and take the
// next. There are more clients than the resident cap, so most slices
// begin by resuming a session from the store. One op is one session,
// from Open to result. The seed chooses the session args.
type serveWorkload struct {
	sessions int // sessions per round
	clients  int // concurrent callers parked in Run (pending requests)
	resident int // Config.Resident
}

// The served program: a 4-phase stripe sweep over a 16-page array on
// nproc threads, spread over two tenants.
const (
	servePhases  = 4
	serveWords   = 8 << 10
	serveTenants = 2
)

// serveWorkers is the server's worker count. One worker leaves the
// second CPU to the Go runtime's collector and the clients: with two,
// the eviction a worker runs under the server lock stalls the other,
// and a run's throughput and tail latency followed outside load on the
// host.
const serveWorkers = 1

// defaultServe keeps rounds short (under a second), so the medians
// over rounds and latency blocks see many of them in a run.
func defaultServe() serveWorkload {
	return serveWorkload{sessions: 12, clients: 4, resident: 2}
}

type serveFixture struct {
	w        serveWorkload
	e        env
	args     []uint64
	want     []repro.RunResult // uninterrupted private runs, by arg index
	perPages int
	store    *castore.MemStore
	stored   int64         // bytes stored per round before its GC sweep, summed
	parent   *atomic.Int32 // span the store wrapper parents calls on: the run span
	srv      *serve.Server

	mu      sync.Mutex
	results []repro.RunResult // last round's results, by arg index
	vt      int64
	insns   int64
	hash    uint64
}

func (w serveWorkload) setup(e env) (fixture, error) {
	f := &serveFixture{w: w, e: e, hash: fnvOffset}
	r := newRNG(e.seed)
	f.args = make([]uint64, w.sessions)
	for i := range f.args {
		f.args[i] = r.next()
	}
	maker := serve.StripeProgram(e.procs, servePhases, serveWords)
	opts := []repro.SessionOption{repro.WithMachine(repro.MachineConfig{CPUsPerNode: e.procs, MergeWorkers: 1})}

	// Expected results: every session run uninterrupted in a private
	// Session, outside the timed region.
	f.want = make([]repro.RunResult, len(f.args))
	for i, arg := range f.args {
		sess, err := repro.NewSession(opts...)
		if err != nil {
			return nil, err
		}
		res, err := sess.RunProgram(maker(arg))
		if err != nil {
			return nil, fmt.Errorf("serve: private run of arg %#x: %w", arg, err)
		}
		f.want[i] = res
	}
	pages, err := sessionPages(maker, opts)
	if err != nil {
		return nil, err
	}
	f.perPages = pages

	f.store = castore.NewMemStore()
	f.parent = new(atomic.Int32)
	f.parent.Store(-1)
	f.srv, err = serve.New(serve.Config{
		Store:       wrapStore(f.store, e.tr, f.parent),
		SessionOpts: opts,
		Workers:     serveWorkers,
		Resident:    w.resident,
		Slice:       1,
		Clock:       func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		return nil, err
	}
	f.srv.Register("stripe", maker)
	f.results = make([]repro.RunResult, len(f.args))
	return f, nil
}

// sessionPages is the resting-image page count of one session, the
// unit the resident-pages bound is stated in (as in internal/bench).
func sessionPages(maker serve.ProgramMaker, opts []repro.SessionOption) (int, error) {
	sess, err := repro.NewSession(opts...)
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	if err := sess.Bind(maker(0)); err != nil {
		return 0, err
	}
	max := 0
	for {
		sr, err := sess.Step(1)
		if err != nil {
			return 0, err
		}
		if sr.Pages > max {
			max = sr.Pages
		}
		if sr.Done {
			return max, nil
		}
	}
}

func (f *serveFixture) round(rec *recorder) error {
	f.parent.Store(rec.runSpan)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, f.w.clients)
	for c := 0; c < f.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(f.args) {
					return
				}
				if err := f.session(rec, i); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, res := range f.results {
		f.hash = fold(f.hash, "serve", f.args[i], res.Ret, uint64(res.VT), uint64(res.Insns))
	}
	// Closed sessions' chains are garbage; sweep them so the store, and
	// so memory, stays the same size however many rounds run.
	st, err := f.store.Stats()
	if err != nil {
		return err
	}
	f.stored += st.StoredSize
	return rec.call("serve.GC", rec.runSpan, func() error {
		_, err := f.srv.GC()
		return err
	})
}

// session is one op: Open, Run to completion, Close.
func (f *serveFixture) session(rec *recorder, i int) error {
	tenant := fmt.Sprintf("t%d", i%serveTenants)
	var res repro.RunResult
	err := rec.op("serve.session", func(op int32) error {
		var id serve.SessionID
		if err := rec.call("serve.Open", op, func() (err error) {
			id, err = f.srv.Open(tenant, "stripe", f.args[i])
			return err
		}); err != nil {
			return err
		}
		if err := rec.call("serve.Run", op, func() (err error) {
			res, err = f.srv.Run(tenant, id)
			return err
		}); err != nil {
			return err
		}
		return rec.call("serve.CloseSession", op, func() error {
			return f.srv.CloseSession(tenant, id)
		})
	})
	if err != nil {
		return err
	}
	if res != f.want[i] {
		return gatef("serve: session arg %#x result %+v, private run %+v", f.args[i], res, f.want[i])
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.results[i] = res
	f.vt += res.VT
	f.insns += res.Insns
	return nil
}

func (f *serveFixture) verify() error {
	m := f.srv.Stats()
	if m.BitEqFail != 0 {
		return gatef("serve: %d failover digest mismatches", m.BitEqFail)
	}
	if bound := int64(f.w.resident+serveWorkers) * int64(f.perPages); m.ResidentPeakPages > bound {
		return gatef("serve: peak resident pages %d > bound %d ((cap %d + workers %d) x %d pages)",
			m.ResidentPeakPages, bound, f.w.resident, serveWorkers, f.perPages)
	}
	return nil
}

func (f *serveFixture) layers(g *region) map[string]float64 {
	ops := g.ops
	m := f.srv.Stats()
	st, _ := f.store.Stats()
	out := storeMetrics(f.e.tr, g.from, castore.StoreStats{}, st, ops)
	out["castore.stored_kb_per_op"] = per(float64(f.stored)/1024, ops)
	var latSum float64
	for _, l := range g.lat {
		latSum += l
	}
	out["serve.slice_ms"] = per(float64(m.WallNS)/1e6, int(m.Slices))
	out["serve.resume_slice_ms"] = per(float64(m.ResumeNS)/1e6, int(m.Resumes))
	out["serve.queue_wait_ms"] = per(latSum-float64(m.WallNS)/1e6, ops)
	out["serve.evictions_per_op"] = per(float64(m.Evictions), ops)
	out["serve.resumes_per_op"] = per(float64(m.Resumes), ops)
	out["serve.resident_peak_pages"] = float64(m.ResidentPeakPages)
	out["serve.retries_per_op"] = per(float64(m.Retries), ops)
	out["kernel.vt_per_op"] = per(float64(f.vt), ops)
	out["kernel.insns_per_op"] = per(float64(f.insns), ops)
	return out
}

func (f *serveFixture) digest() uint64 { return f.hash }

func (f *serveFixture) close() { f.srv.Shutdown() }
