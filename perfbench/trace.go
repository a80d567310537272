package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/castore"
	"repro/internal/detmake"
)

// span is one timed call the benchmark made or observed at a layer
// boundary. Times are nanoseconds since the tracer started; parent is
// the index of the causing span, -1 for the run span itself.
type span struct {
	name       string
	start, end int64
	parent     int32
	bytes      int64 // payload size for store calls, 0 elsewhere
}

// tracer keeps the spans of a traced run in memory. A nil *tracer is
// the untraced run: every method is a no-op returning span -1.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its index; close ends it.
func (t *tracer) open(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32, bytes int64) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	t.spans[id].bytes = bytes
}

// spanTotals sums the count, duration and bytes of every span called
// name that started at or after span index from.
type spanTotals struct {
	n     int64
	ns    int64
	bytes int64
}

func (t *tracer) totals(from int32, names ...string) spanTotals {
	var s spanTotals
	if t == nil {
		return s
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans[from:] {
		if want[sp.name] {
			s.n++
			s.ns += sp.end - sp.start
			s.bytes += sp.bytes
		}
	}
	return s
}

// write dumps the spans as tab-separated lines: index, parent, name,
// start ns, end ns, bytes.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for i, sp := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, sp.parent, sp.name, sp.start, sp.end, sp.bytes)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStore is a pass-through castore.Store that records a span for
// every call, parented on whatever span parent names at call time: the
// current op for callers the benchmark drives synchronously, the run
// span for a serve worker's calls (the session that caused an eviction
// cannot be seen from outside the server).
type tracedStore struct {
	inner  castore.Store
	tr     *tracer
	parent *atomic.Int32
}

func (s *tracedStore) Put(k castore.Key, b []byte) error {
	id := s.tr.open("castore.Put", s.parent.Load())
	err := s.inner.Put(k, b)
	s.tr.close(id, int64(len(b)))
	return err
}

func (s *tracedStore) Get(k castore.Key) ([]byte, error) {
	id := s.tr.open("castore.Get", s.parent.Load())
	b, err := s.inner.Get(k)
	s.tr.close(id, int64(len(b)))
	return b, err
}

func (s *tracedStore) Has(k castore.Key) (bool, error) {
	id := s.tr.open("castore.Has", s.parent.Load())
	ok, err := s.inner.Has(k)
	s.tr.close(id, 0)
	return ok, err
}

func (s *tracedStore) Stat(k castore.Key) (castore.BlobInfo, error) {
	id := s.tr.open("castore.Stat", s.parent.Load())
	info, err := s.inner.Stat(k)
	s.tr.close(id, 0)
	return info, err
}

func (s *tracedStore) Keys(fn func(castore.Key, castore.BlobInfo) error) error {
	id := s.tr.open("castore.Keys", s.parent.Load())
	err := s.inner.Keys(fn)
	s.tr.close(id, 0)
	return err
}

func (s *tracedStore) Delete(k castore.Key) error {
	id := s.tr.open("castore.Delete", s.parent.Load())
	err := s.inner.Delete(k)
	s.tr.close(id, 0)
	return err
}

func (s *tracedStore) Stats() (castore.StoreStats, error) { return s.inner.Stats() }

// tracedIndex is the pass-through detmake.ActionIndex counterpart.
type tracedIndex struct {
	inner  detmake.ActionIndex
	tr     *tracer
	parent *atomic.Int32
}

func (x *tracedIndex) Lookup(action castore.Key) (castore.Key, bool, error) {
	id := x.tr.open("detmake.index.Lookup", x.parent.Load())
	man, ok, err := x.inner.Lookup(action)
	x.tr.close(id, 0)
	return man, ok, err
}

func (x *tracedIndex) Record(action, man castore.Key) error {
	id := x.tr.open("detmake.index.Record", x.parent.Load())
	err := x.inner.Record(action, man)
	x.tr.close(id, 0)
	return err
}

func (x *tracedIndex) Roots() ([]castore.Key, error) {
	id := x.tr.open("detmake.index.Roots", x.parent.Load())
	keys, err := x.inner.Roots()
	x.tr.close(id, 0)
	return keys, err
}

// wrapStore returns s unchanged in an untraced run and wrapped in a
// tracedStore otherwise.
func wrapStore(s castore.Store, tr *tracer, parent *atomic.Int32) castore.Store {
	if tr == nil {
		return s
	}
	return &tracedStore{inner: s, tr: tr, parent: parent}
}

func wrapIndex(x detmake.ActionIndex, tr *tracer, parent *atomic.Int32) detmake.ActionIndex {
	if tr == nil {
		return x
	}
	return &tracedIndex{inner: x, tr: tr, parent: parent}
}

// storeMetrics derives the castore.* per-layer metrics: put counts
// from the store's own counters (before and after the region), get
// counts and call times from the wrapper's spans since span index from.
func storeMetrics(tr *tracer, from int32, before, after castore.StoreStats, ops int) map[string]float64 {
	put := tr.totals(from, "castore.Put")
	get := tr.totals(from, "castore.Get")
	puts := after.Puts - before.Puts
	out := map[string]float64{
		"castore.put_per_op":       per(float64(puts), ops),
		"castore.put_kb_per_op":    per(float64(after.PutBytes-before.PutBytes)/1024, ops),
		"castore.put_ms_per_op":    per(float64(put.ns)/1e6, ops),
		"castore.get_per_op":       per(float64(get.n), ops),
		"castore.get_kb_per_op":    per(float64(get.bytes)/1024, ops),
		"castore.get_ms_per_op":    per(float64(get.ns)/1e6, ops),
		"castore.stored_kb_per_op": per(float64(after.StoredSize-before.StoredSize)/1024, ops),
	}
	if puts > 0 {
		out["castore.dup_put_ratio"] = float64(after.DupPuts-before.DupPuts) / float64(puts)
	}
	return out
}

// per divides v by n, reading 0 for an empty region.
func per(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}
