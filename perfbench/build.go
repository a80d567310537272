package main

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/castore"
	"repro/internal/detmake"
)

// buildWorkload drives detmake.Build over a seeded DAG that mixes a
// wide fan-out, a chain and a diamond. Set-up cold-builds into a fresh
// store; each op then edits one source and rebuilds over the warm
// store, with a no-op rebuild after every second edit. A round edits
// every source once. The seed chooses the DAG's wiring, the sources and
// the edit order.
type buildWorkload struct{}

const (
	noopEvery  = 2  // a no-op rebuild follows every noopEvery-th edit
	checkEvery = 32 // every checkEvery-th edit is re-checked against a cold build
)

type buildFixture struct {
	e       env
	g       *detmake.Graph
	orig    map[string][]byte
	sources map[string][]byte
	cones   map[string][]string // downstream cone of every source
	edits   []string            // the order each round edits the sources in

	store   *castore.MemStore
	storeIn castore.StoreStats // store counters when set-up ended
	bstore  castore.BlobStore  // store, wrapped in a traced run
	index   detmake.ActionIndex
	parent  *atomic.Int32 // span the wrappers parent calls on: the running build's

	coldMS float64
	edit   int // edits applied so far
	checks []buildCheck
	noopMS []float64
	stats  detmake.Stats // summed over every rebuild in the timed region
	vt     int64
	hash   uint64
}

// buildCheck is an edited tree whose incremental result is re-checked
// against a cold build after the timed region.
type buildCheck struct {
	edit     int
	sources  map[string][]byte
	digest   castore.Key
	checksum uint64
}

// buildDAG generates the seeded task graph and its source tree, kept
// well under the per-image inode ceiling (fs.NumInodes). The sizes are
// fixed so that every seed costs the same; the seed chooses the wiring
// (which object file the chain and the diamond hang from) and the
// source contents.
func buildDAG(r *rng) ([]*detmake.Task, map[string][]byte) {
	const wide, depth = 12, 6 // compile fan-out, chain length
	hook := r.intn(wide)      // the chain starts from this object file
	// The diamond's top also reads another one.
	dia := (hook + 1 + r.intn(wide-1)) % wide
	src := make(map[string][]byte)
	var tasks []*detmake.Task

	var objs []string
	for i := 0; i < wide; i++ {
		in := fmt.Sprintf("src/w%02d.c", i)
		out := fmt.Sprintf("obj/w%02d.o", i)
		src[in] = []byte(fmt.Sprintf("int w%02d = %03d;\n", i, r.next()%1000))
		tasks = append(tasks, &detmake.Task{
			ID: fmt.Sprintf("cc%02d", i), Action: "derive", Args: []string{fmt.Sprint(i)},
			Inputs: []string{in}, Outputs: []string{out},
		})
		objs = append(objs, out)
	}
	tasks = append(tasks, &detmake.Task{ID: "link", Action: "concat", Inputs: objs, Outputs: []string{"out/wide.bin"}})

	src["src/chain.txt"] = []byte(fmt.Sprintf("chain seed %03d\n", r.next()%1000))
	prev := []string{"src/chain.txt", objs[hook]}
	for i := 0; i < depth; i++ {
		out := fmt.Sprintf("chain/c%02d.dat", i)
		tasks = append(tasks, &detmake.Task{
			ID: fmt.Sprintf("chain%02d", i), Action: "derive", Args: []string{fmt.Sprint(i)},
			Inputs: prev, Outputs: []string{out},
		})
		prev = []string{out}
	}

	src["src/top.txt"] = []byte(fmt.Sprintf("diamond top %03d\n", r.next()%1000))
	tasks = append(tasks,
		&detmake.Task{ID: "top", Action: "concat", Inputs: []string{"src/top.txt", objs[dia]}, Outputs: []string{"dia/top.dat"}},
		&detmake.Task{ID: "left", Action: "derive", Args: []string{"l"}, Inputs: []string{"dia/top.dat"}, Outputs: []string{"dia/l.dat"}},
		&detmake.Task{ID: "right", Action: "derive", Args: []string{"r"}, Inputs: []string{"dia/top.dat"}, Outputs: []string{"dia/r.dat"}},
		&detmake.Task{ID: "bottom", Action: "concat", Inputs: []string{"dia/l.dat", "dia/r.dat"}, Outputs: []string{"dia/bot.dat"}},
		&detmake.Task{ID: "final", Action: "concat",
			Inputs: []string{"out/wide.bin", prev[0], "dia/bot.dat"}, Outputs: []string{"out/all.bin"}},
	)
	return tasks, src
}

func (w buildWorkload) setup(e env) (fixture, error) {
	f := &buildFixture{e: e, cones: make(map[string][]string), hash: fnvOffset}
	r := newRNG(e.seed)
	tasks, src := buildDAG(r)
	g, err := detmake.NewGraph(tasks)
	if err != nil {
		return nil, err
	}
	f.g, f.orig = g, src
	// Every source carries one fixed-length edit line, so edited and
	// unedited trees have the same sizes and the modelled work (VT) of
	// an edit does not depend on which sources were edited before it.
	f.sources = make(map[string][]byte, len(src))
	var leaves []string
	for p, b := range src {
		f.sources[p] = withEdit(b, 0)
		leaves = append(leaves, p)
	}
	sort.Strings(leaves)
	for _, p := range leaves {
		f.cones[p] = g.Cone(p)
	}
	// Every round edits each source once, in the same seeded order: per-op
	// counts do not depend on how many rounds a run fits in, and every
	// seed's rounds do the same work.
	for _, i := range r.perm(len(leaves)) {
		f.edits = append(f.edits, leaves[i])
	}

	f.store = castore.NewMemStore()
	f.parent = new(atomic.Int32)
	f.parent.Store(-1)
	f.bstore = wrapStore(f.store, e.tr, f.parent)
	f.index = wrapIndex(detmake.NewMemIndex(), e.tr, f.parent)

	// Cold build into the fresh store: every task executes.
	start := time.Now()
	cold, err := f.build(f.sources)
	f.coldMS = float64(time.Since(start)) / 1e6
	if err != nil {
		return nil, fmt.Errorf("build: cold: %w", err)
	}
	if cold.Stats.Executed != cold.Stats.Tasks {
		return nil, gatef("build: cold build executed %d of %d tasks", cold.Stats.Executed, cold.Stats.Tasks)
	}
	// Warm-up: a no-op rebuild is all hits and bit-equal to cold.
	warm, err := f.build(f.sources)
	if err != nil {
		return nil, fmt.Errorf("build: warm: %w", err)
	}
	if err := noopGate(warm, cold); err != nil {
		return nil, err
	}
	f.storeIn, err = f.store.Stats()
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (f *buildFixture) build(sources map[string][]byte) (detmake.Result, error) {
	return detmake.Build(detmake.Config{
		Graph: f.g, Sources: sources, Store: f.bstore, Index: f.index, Jobs: f.e.procs,
	})
}

// noopGate checks a rebuild of unchanged sources: every task a cache
// hit, and the tree and image bit-equal to the previous build.
func noopGate(noop, prev detmake.Result) error {
	if noop.Stats.CacheHits != noop.Stats.Tasks {
		return gatef("build: no-op rebuild hit %d of %d tasks", noop.Stats.CacheHits, noop.Stats.Tasks)
	}
	if noop.TreeDigest != prev.TreeDigest || noop.Checksum != prev.Checksum {
		return gatef("build: no-op rebuild bits differ from the build before it")
	}
	return nil
}

func (f *buildFixture) add(r detmake.Result) {
	f.stats.Tasks += r.Stats.Tasks
	f.stats.Waves += r.Stats.Waves
	f.stats.Executed += r.Stats.Executed
	f.stats.CacheHits += r.Stats.CacheHits
	f.stats.Fallbacks += r.Stats.Fallbacks
	f.stats.Fetched += r.Stats.Fetched
	f.stats.Stored += r.Stats.Stored
}

func (f *buildFixture) round(rec *recorder) error {
	for _, leaf := range f.edits {
		f.sources[leaf] = withEdit(f.orig[leaf], f.edit+1)
		var res detmake.Result
		err := rec.op("build.edit", func(op int32) error {
			f.parent.Store(op)
			return rec.call("detmake.Build", op, func() (err error) {
				res, err = f.build(f.sources)
				return err
			})
		})
		if err != nil {
			return fmt.Errorf("build: edit %d of %s: %w", f.edit, leaf, err)
		}
		if err := f.coneGate(res, leaf); err != nil {
			return err
		}
		f.add(res)
		f.vt += res.VT
		f.hash = fold(f.hash, leaf, uint64(res.Stats.Executed), res.Checksum, uint64(res.VT))
		f.hash = fold(f.hash, string(res.TreeDigest[:]))
		if f.edit%checkEvery == 0 {
			f.checks = append(f.checks, buildCheck{edit: f.edit, sources: copySources(f.sources),
				digest: res.TreeDigest, checksum: res.Checksum})
		}
		f.edit++

		if f.edit%noopEvery == 0 {
			span := rec.tr.open("detmake.Build.noop", rec.runSpan)
			f.parent.Store(span)
			start := time.Now()
			noop, err := f.build(f.sources)
			rec.tr.close(span, 0)
			f.noopMS = append(f.noopMS, float64(time.Since(start))/1e6)
			if err != nil {
				return fmt.Errorf("build: no-op rebuild: %w", err)
			}
			if err := noopGate(noop, res); err != nil {
				return err
			}
			f.add(noop)
		}
	}
	return nil
}

// coneGate checks that an edit re-executed exactly the edited source's
// downstream cone and fetched everything else.
func (f *buildFixture) coneGate(res detmake.Result, leaf string) error {
	var ran []string
	for _, t := range res.Tasks {
		if !t.CacheHit {
			ran = append(ran, t.ID)
		}
	}
	want := f.cones[leaf]
	if strings.Join(ran, ",") != strings.Join(want, ",") || res.Stats.Fallbacks != 0 {
		return gatef("build: edit of %s re-executed %v (%d fallbacks), want cone %v",
			leaf, ran, res.Stats.Fallbacks, want)
	}
	return nil
}

// verify re-builds the sampled edited trees cold, with no cache, and
// compares tree digest and image checksum with the incremental builds.
func (f *buildFixture) verify() error {
	for _, c := range f.checks {
		cold, err := detmake.Build(detmake.Config{Graph: f.g, Sources: c.sources, Jobs: f.e.procs})
		if err != nil {
			return fmt.Errorf("build: cold check of edit %d: %w", c.edit, err)
		}
		if cold.TreeDigest != c.digest || cold.Checksum != c.checksum {
			return gatef("build: edit %d incremental bits differ from a cold build", c.edit)
		}
	}
	return nil
}

// withEdit returns a source with edit line n: new content for every n
// (so the edit's cone re-executes), always the same length.
func withEdit(orig []byte, n int) []byte {
	return fmt.Appendf(append([]byte(nil), orig...), "// edit %010d\n", n)
}

func copySources(src map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(src))
	for p, b := range src {
		out[p] = b
	}
	return out
}

func (f *buildFixture) layers(g *region) map[string]float64 {
	ops := g.ops
	st, _ := f.store.Stats()
	out := storeMetrics(f.e.tr, g.from, f.storeIn, st, ops)
	index := f.e.tr.totals(g.from, "detmake.index.Lookup", "detmake.index.Record", "detmake.index.Roots")
	out["detmake.executed_per_op"] = per(float64(f.stats.Executed), ops)
	if f.stats.Tasks > 0 {
		out["detmake.hit_ratio"] = float64(f.stats.CacheHits) / float64(f.stats.Tasks)
	}
	out["detmake.fetched_kb_per_op"] = per(float64(f.stats.Fetched)/1024, ops)
	out["detmake.fallbacks_per_op"] = per(float64(f.stats.Fallbacks), ops)
	out["detmake.waves_per_op"] = per(float64(f.stats.Waves), ops)
	out["detmake.index_ms_per_op"] = per(float64(index.ns)/1e6, ops)
	out["detmake.noop_build_ms"] = median(f.noopMS)
	out["kernel.vt_per_op"] = per(float64(f.vt), ops)
	return out
}

func (f *buildFixture) digest() uint64 { return f.hash }
func (f *buildFixture) close()         {}
