package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/castore"
)

// chunkRoundTrip asserts the core store property: unchunking a chunked
// forest yields the captured forest exactly.
func chunkRoundTrip(t testing.TB, store castore.BlobStore, f *Forest, parent castore.Key) castore.Key {
	t.Helper()
	root, err := ChunkForest(store, f, parent)
	if err != nil {
		t.Fatalf("ChunkForest: %v", err)
	}
	back, err := UnchunkForest(store, root)
	if err != nil {
		t.Fatalf("UnchunkForest: %v", err)
	}
	if !back.Equal(f) {
		t.Fatalf("unchunked forest differs from the captured one")
	}
	return root
}

func TestChunkRoundTripFull(t *testing.T) {
	cur, snap := buildPair(t)
	f := encodePair(cur, snap)
	store := castore.NewMemStore()
	root := chunkRoundTrip(t, store, f, castore.Key{})

	// The forest read back decodes into working spaces.
	back, err := UnchunkForest(store, root)
	if err != nil {
		t.Fatal(err)
	}
	spaces, err := DecodeForest(back)
	if err != nil {
		t.Fatalf("DecodeForest of unchunked forest: %v", err)
	}
	if len(spaces) != 2 {
		t.Fatalf("decoded %d spaces, want 2", len(spaces))
	}
	if got := readBack(t, spaces[0], 16); got[4] != readBack(t, cur, 16)[4] {
		t.Fatal("restored content differs")
	}

	// A full root is self-contained: no parent node ref. It is exactly
	// the forest's Root.
	node, err := castore.GetNode(store, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(node.NodeRefs) != 0 {
		t.Fatalf("full root has %d node refs, want 0", len(node.NodeRefs))
	}
	if raw, err := store.Get(root); err != nil || !bytes.Equal(raw, f.Root()) {
		t.Fatalf("stored full root differs from Forest.Root (%v)", err)
	}
}

func TestChunkRoundTripEmptyForest(t *testing.T) {
	e := NewForestEncoder()
	e.Add(NewSpace())
	chunkRoundTrip(t, castore.NewMemStore(), e.Encode(), castore.Key{})
}

func TestChunkDeltaStoresOnlyDirtyPages(t *testing.T) {
	s := NewSpace()
	const pages = 64
	if err := s.SetPerm(0, pages*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := s.WriteU64(Addr(i*PageSize), uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	enc := func() *Forest {
		e := NewForestEncoder()
		e.Add(s)
		return e.Encode()
	}
	store := castore.NewMemStore()
	root1 := chunkRoundTrip(t, store, enc(), castore.Key{})
	before, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}

	// Touch two pages, chunk again against the first root.
	for _, pg := range []int{11, 40} {
		if err := s.WriteU64(Addr(pg*PageSize)+16, 0xc0ffee+uint64(pg)); err != nil {
			t.Fatal(err)
		}
	}
	root2 := chunkRoundTrip(t, store, enc(), root1)
	after, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}

	// O(k): the second image adds the 2 dirty pages plus one root node.
	if grew := after.Chunks - before.Chunks; grew != 3 {
		t.Fatalf("second checkpoint added %d chunks, want 3 (2 pages + root)", grew)
	}
	node, err := castore.GetNode(store, root2)
	if err != nil {
		t.Fatal(err)
	}
	if len(node.NodeRefs) != 1 || node.NodeRefs[0] != root1 {
		t.Fatalf("delta root node refs = %v, want parent %s", node.NodeRefs, root1)
	}
	if len(node.LeafRefs) != 2 {
		t.Fatalf("delta root carries %d literal refs, want 2", len(node.LeafRefs))
	}
}

func TestChunkDeltaChainFallsBackToFullRoot(t *testing.T) {
	s := NewSpace()
	if err := s.SetPerm(0, 8*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	store := castore.NewMemStore()
	var parent castore.Key
	sawFull := 0
	for i := 0; i < maxChainDepth+4; i++ {
		if err := s.WriteU64(Addr((i%8)*PageSize), uint64(i)+1); err != nil {
			t.Fatal(err)
		}
		e := NewForestEncoder()
		e.Add(s)
		root := chunkRoundTrip(t, store, e.Encode(), parent)
		node, err := castore.GetNode(store, root)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && len(node.NodeRefs) == 0 {
			sawFull++
		}
		parent = root
	}
	if sawFull == 0 {
		t.Fatalf("chain of %d checkpoints never fell back to a full root", maxChainDepth+4)
	}
}

func TestUnchunkRejectsDamage(t *testing.T) {
	cur, snap := buildPair(t)
	f := encodePair(cur, snap)

	// Missing root key.
	if _, err := UnchunkForest(castore.NewMemStore(), castore.KeyOf([]byte("nope"))); !errors.As(err, new(*castore.ChunkMissingError)) {
		t.Fatalf("missing root: %v, want ChunkMissingError", err)
	}

	// Deleting any leaf chunk must surface as ChunkMissingError.
	store := castore.NewMemStore()
	root, err := ChunkForest(store, f, castore.Key{})
	if err != nil {
		t.Fatal(err)
	}
	node, err := castore.GetNode(store, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range []castore.Key{node.LeafRefs[0], node.LeafRefs[len(node.LeafRefs)-1]} {
		saved, err := store.Get(victim)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Delete(victim); err != nil {
			t.Fatal(err)
		}
		if _, err := UnchunkForest(store, root); !errors.As(err, new(*castore.ChunkMissingError)) {
			t.Fatalf("deleted chunk: %v, want ChunkMissingError", err)
		}
		if err := store.Put(victim, saved); err != nil {
			t.Fatal(err)
		}
	}

	// A root written by a newer format fails closed with the typed
	// version error.
	future := append([]byte(nil), node.Payload...)
	future[0] = chunkRootVersion + 1
	futureRoot, err := castore.PutNode(store, node.NodeRefs, node.LeafRefs, future)
	if err != nil {
		t.Fatal(err)
	}
	var verr *ImageVersionError
	if _, err := UnchunkForest(store, futureRoot); !errors.As(err, &verr) {
		t.Fatalf("future root version: %v, want ImageVersionError", err)
	}
	if verr.Version != chunkRootVersion+1 || verr.Max != chunkRootVersion {
		t.Fatalf("version error fields: %+v", verr)
	}

	// Corrupting a chunk's stored bytes must surface as ChunkHashError.
	store.Corrupt(node.LeafRefs[0], []byte{'R', 1, 2, 3})
	if _, err := UnchunkForest(store, root); !errors.As(err, new(*castore.ChunkHashError)) {
		t.Fatalf("corrupt chunk: %v, want ChunkHashError", err)
	}
}

// oneSlotTail is a forest tail holding one space whose one root slot
// names table 1: the least tail that lets a root carry one table.
func oneSlotTail() []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, 1) // one space
	b = append(b, 0)                           // flags
	b = binary.LittleEndian.AppendUint16(b, 1) // one root slot
	b = binary.LittleEndian.AppendUint16(b, 0) // l1 0
	b = binary.LittleEndian.AppendUint32(b, 1) // table 1
	b = binary.LittleEndian.AppendUint16(b, 0) // no dirty slots
	b = binary.LittleEndian.AppendUint32(b, 0) // no links
	return b
}

func TestUnchunkRejectsMismatchedChunkShapes(t *testing.T) {
	// A structurally valid root whose refs point at chunks of the wrong
	// shape (a table chunk where a page belongs) must fail typed, not
	// produce a garbage image.
	store := castore.NewMemStore()
	small := []byte{1, 0, 5, 0, 3} // valid table chunk: n=1, l2=5, perm=3
	smallKey := castore.KeyOf(small)
	if err := store.Put(smallKey, small); err != nil {
		t.Fatal(err)
	}
	tail := oneSlotTail()
	var payload []byte
	payload = append(payload, chunkRootVersion)
	payload = append(payload, 0, 0, 0, 0) // depth
	payload = append(payload, 0)          // no parent
	payload = append(payload, 1, 0, 0, 0) // nPages = 1
	payload = append(payload, 1, 0, 0, 0) // one page op
	payload = append(payload, 0)          // literal
	payload = append(payload, 0, 0, 0, 0) // leaf start 0
	payload = append(payload, 1, 0, 0, 0) // count 1
	payload = append(payload, 1, 0, 0, 0) // nTables = 1
	payload = append(payload, 1, 0, 0, 0) // one table op
	payload = append(payload, 0)          // literal
	payload = append(payload, 1, 0, 0, 0) // one record
	payload = append(payload, 1, 0, 0, 0) // leaf 1
	payload = append(payload, 1, 0)       // one page id
	payload = append(payload, 1, 0, 0, 0) // page 1
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(tail)))
	payload = append(payload, tail...)
	root, err := castore.PutNode(store, nil, []castore.Key{smallKey, smallKey}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnchunkForest(store, root); !errors.As(err, new(*ImageFormatError)) || !strings.Contains(err.Error(), "page 0: chunk") {
		t.Fatalf("wrong-size page chunk: %v, want ImageFormatError for page 0's chunk", err)
	}

	// A truncated root payload is a format error too.
	root2, err := castore.PutNode(store, nil, nil, payload[:7])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnchunkForest(store, root2); !errors.As(err, new(*ImageFormatError)) {
		t.Fatalf("truncated root payload: %v, want ImageFormatError", err)
	}

	// Table chunks: one literal record naming chunk (leaf 0) with the
	// given page ids. A one-byte chunk is truncated, a chunk whose
	// length disagrees with its slot count is malformed, and a valid
	// one-slot chunk listed with two page ids mismatches the root.
	oneByte := []byte{1}
	if err := store.Put(castore.KeyOf(oneByte), oneByte); err != nil {
		t.Fatal(err)
	}
	badLen := []byte{2, 0, 5, 0, 3} // claims 2 slots, holds 1
	if err := store.Put(castore.KeyOf(badLen), badLen); err != nil {
		t.Fatal(err)
	}
	tableRoot := func(chunk []byte, pids ...uint32) castore.Key {
		var p []byte
		p = append(p, chunkRootVersion)
		p = binary.LittleEndian.AppendUint32(p, 0) // depth
		p = append(p, 0)                           // no parent
		p = binary.LittleEndian.AppendUint32(p, 0) // no pages
		p = binary.LittleEndian.AppendUint32(p, 0) // no page ops
		p = binary.LittleEndian.AppendUint32(p, 1) // one table
		p = binary.LittleEndian.AppendUint32(p, 1) // one table op
		p = append(p, 0)                           // literal
		p = binary.LittleEndian.AppendUint32(p, 1) // one record
		p = binary.LittleEndian.AppendUint32(p, 0) // leaf 0
		p = binary.LittleEndian.AppendUint16(p, uint16(len(pids)))
		for _, pid := range pids {
			p = binary.LittleEndian.AppendUint32(p, pid)
		}
		p = binary.LittleEndian.AppendUint32(p, uint32(len(tail)))
		p = append(p, tail...)
		key, err := castore.PutNode(store, nil, []castore.Key{castore.KeyOf(chunk)}, p)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	for name, root := range map[string]castore.Key{
		"truncated table chunk": tableRoot(oneByte),
		"table chunk length":    tableRoot(badLen, 0, 0),
		"table slot count":      tableRoot(small, 0, 0),
	} {
		if _, err := UnchunkForest(store, root); !errors.As(err, new(*ImageFormatError)) || !strings.Contains(err.Error(), "table 0: chunk") {
			t.Fatalf("%s: %v, want ImageFormatError for table 0's chunk", name, err)
		}
	}
	// The same record with a matching page-id list is well-formed.
	if _, err := UnchunkForest(store, tableRoot(small, 0)); err != nil {
		t.Fatalf("well-formed one-table root: %v", err)
	}
}

func TestChunkSiblingImagesShareChunks(t *testing.T) {
	// Two forests diverged slightly from a common ancestor share most
	// chunks in one store, even with independent (parentless) roots.
	base := NewSpace()
	const pages = 64
	if err := base.SetPerm(0, pages*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := base.WriteU64(Addr(i*PageSize), uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	left, _ := base.Snapshot()
	right, _ := base.Snapshot()
	if err := left.WriteU64(3*PageSize, 0x1111); err != nil {
		t.Fatal(err)
	}
	if err := right.WriteU64(9*PageSize, 0x2222); err != nil {
		t.Fatal(err)
	}

	store := castore.NewMemStore()
	encOne := func(s *Space) *Forest {
		e := NewForestEncoder()
		e.Add(s)
		return e.Encode()
	}
	chunkRoundTrip(t, store, encOne(left), castore.Key{})
	mid, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	chunkRoundTrip(t, store, encOne(right), castore.Key{})
	end, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	added := end.Chunks - mid.Chunks
	// Right's image shares all but its one diverged page with left's:
	// one new page chunk plus one new root.
	if added > 3 {
		t.Fatalf("sibling image added %d chunks to a %d-chunk store", added, mid.Chunks)
	}
}

// hostileRoot is a self-contained root payload whose page and table
// counts claim nPages and nTables while carrying no ops and no tail.
func hostileRoot(nPages, nTables uint32) []byte {
	var p []byte
	p = append(p, chunkRootVersion)
	p = binary.LittleEndian.AppendUint32(p, 0) // depth
	p = append(p, 0)                           // no parent
	p = binary.LittleEndian.AppendUint32(p, nPages)
	p = binary.LittleEndian.AppendUint32(p, 0) // no page ops
	p = binary.LittleEndian.AppendUint32(p, nTables)
	p = binary.LittleEndian.AppendUint32(p, 0) // no table ops
	p = binary.LittleEndian.AppendUint32(p, 0) // empty tail
	return p
}

// rawStore is a BlobStore that holds chunks as given, with no codec,
// so allocation measurements see only the decoder's own allocations.
type rawStore map[castore.Key][]byte

func (s rawStore) Put(k castore.Key, b []byte) error { s[k] = b; return nil }

func (s rawStore) Get(k castore.Key) ([]byte, error) {
	if b, ok := s[k]; ok {
		return b, nil
	}
	return nil, &castore.ChunkMissingError{Key: k}
}

func (s rawStore) Has(k castore.Key) (bool, error) { _, ok := s[k]; return ok, nil }

func (s rawStore) Stat(k castore.Key) (castore.BlobInfo, error) {
	if b, ok := s[k]; ok {
		return castore.BlobInfo{Size: len(b), StoredSize: len(b)}, nil
	}
	return castore.BlobInfo{}, &castore.ChunkMissingError{Key: k}
}

// TestUnchunkBoundsHostileRootCounts is the regression test for root
// decoding that sized its instance lists by the payload's header
// counts: a 26-byte payload claiming 2^28 pages aborted the process out
// of memory, and one claiming 2^27 tables allocated 7 GB before failing.
// Both must fail typed while allocating on the order of the node itself.
func TestUnchunkBoundsHostileRootCounts(t *testing.T) {
	for name, payload := range map[string][]byte{
		"pages":  hostileRoot(1<<28, 0),
		"tables": hostileRoot(0, 1<<27),
	} {
		store := rawStore{}
		node := castore.BuildNode(nil, nil, payload)
		key := castore.KeyOf(node)
		if err := store.Put(key, node); err != nil {
			t.Fatal(err)
		}
		// TotalAlloc is process-wide; the least of a few runs is the
		// decoder's own allocation.
		least := uint64(1 << 62)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := UnchunkForest(store, key)
			runtime.ReadMemStats(&after)
			if !errors.As(err, new(*ImageFormatError)) {
				t.Fatalf("%s: %d-byte payload claiming a huge count: got %v, want *ImageFormatError", name, len(payload), err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew < least {
				least = grew
			}
		}
		if least >= uint64(16*len(node)) {
			t.Fatalf("%s: unchunking a %d-byte root allocated %d bytes", name, len(node), least)
		}
	}
}

// countingStore counts the Gets that reach a store.
type countingStore struct {
	castore.BlobStore
	gets int
}

func (s *countingStore) Get(k castore.Key) ([]byte, error) {
	s.gets++
	return s.BlobStore.Get(k)
}

// deltaRoot is a delta root payload over par. Its page list is par's
// whole page list pageCopies times, one 9-byte copy op each; its table
// list is par's tables tableCopies times, then one literal record per
// lits entry (naming leaf ref 0, with those page ids); its tail is par's.
func deltaRoot(par *Forest, pageCopies, tableCopies int, lits ...[]uint32) []byte {
	var p []byte
	p = append(p, chunkRootVersion)
	p = binary.LittleEndian.AppendUint32(p, 1) // depth
	p = append(p, 1)                           // delta
	p = binary.LittleEndian.AppendUint32(p, uint32(pageCopies*len(par.pageKeys)))
	p = binary.LittleEndian.AppendUint32(p, uint32(pageCopies))
	for i := 0; i < pageCopies; i++ {
		p = append(p, 1) // copy
		p = binary.LittleEndian.AppendUint32(p, 0)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(par.pageKeys)))
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(tableCopies*len(par.tables)+len(lits)))
	nOps := tableCopies
	if len(lits) > 0 {
		nOps++
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(nOps))
	for i := 0; i < tableCopies; i++ {
		p = append(p, 1) // copy
		p = binary.LittleEndian.AppendUint32(p, 0)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(par.tables)))
	}
	if len(lits) > 0 {
		p = append(p, 0) // literal
		p = binary.LittleEndian.AppendUint32(p, uint32(len(lits)))
		for _, pids := range lits {
			p = binary.LittleEndian.AppendUint32(p, 0) // leaf 0
			p = binary.LittleEndian.AppendUint16(p, uint16(len(pids)))
			for _, pid := range pids {
				p = binary.LittleEndian.AppendUint32(p, pid)
			}
		}
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(par.tail)))
	return append(p, par.tail...)
}

// TestUnchunkRejectsRootsBeyondTheirNames is the regression test for
// copy-op amplification: a 1 KB delta root over a 64-page parent listed
// the parent's pages 100 times, and UnchunkForest fetched 6400 pages
// (26 MB) before DecodeForest accepted the forest. A root may list no
// more pages than its tables' page ids, no page id past its pages, and
// no more tables than its tail's root slots; each violation must fail
// typed before any page or table chunk is fetched.
func TestUnchunkRejectsRootsBeyondTheirNames(t *testing.T) {
	s := NewSpace()
	mustSetPerm(t, s, 0, 64*PageSize, PermRW)
	for i := 0; i < 64; i++ {
		if err := s.WriteU64(Addr(i*PageSize), uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	e := NewForestEncoder()
	e.Add(s)
	par := e.Encode()
	store := &countingStore{BlobStore: rawStore{}}
	parRoot, err := ChunkForest(store, par, castore.Key{})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		payload []byte
		leaves  []castore.Key
		want    string
	}{
		{"100 copies of the parent's pages", deltaRoot(par, 100, 1), nil, "6400 pages, but the tables list 64 page ids"},
		{"page id out of range", deltaRoot(par, 1, 0, []uint32{65}), []castore.Key{par.tables[0].chunk}, "page id 65 out of range"},
		{"more tables than root slots", deltaRoot(par, 1, 2), nil, "2 tables, but the tail has 1 root slots"},
	} {
		node := castore.BuildNode([]castore.Key{parRoot}, tc.leaves, tc.payload)
		key := castore.KeyOf(node)
		if err := store.Put(key, node); err != nil {
			t.Fatal(err)
		}
		store.gets = 0
		_, err := UnchunkForest(store, key)
		if !errors.As(err, new(*ImageFormatError)) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s (%d-byte payload): got %v, want *ImageFormatError %q", tc.name, len(tc.payload), err, tc.want)
		}
		if store.gets != 2 {
			t.Fatalf("%s: %d Gets, want 2 (the root and its parent, no chunks)", tc.name, store.gets)
		}
	}

	// The parent itself, re-rooted as a delta over itself, still reads.
	key, err := ChunkForest(store, par, parRoot)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := UnchunkForest(store, key); err != nil || !back.Equal(par) {
		t.Fatalf("delta root over the parent: %v", err)
	}
}

// fuzzFixture is the store FuzzUnchunkForest plants roots into: a full
// root over a small space and its snapshot, and a delta root over it
// after one more page was dirtied. Each root's leaf refs are returned
// so a planted payload can be framed with the same references.
func fuzzFixture(t testing.TB) (store *castore.MemStore, fullRoot castore.Key, fullLeaves, deltaLeaves []castore.Key) {
	s := NewSpace()
	if err := s.SetPerm(0, 6*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.WriteU64(Addr(i*PageSize), uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := s.Snapshot()
	if err := s.WriteU64(PageSize+8, 0xf00d); err != nil {
		t.Fatal(err)
	}
	store = castore.NewMemStore()
	fullRoot = chunkRoundTrip(t, store, encodePair(s, snap), castore.Key{})
	if err := s.WriteU64(2*PageSize+8, 0xbeef); err != nil {
		t.Fatal(err)
	}
	deltaRoot := chunkRoundTrip(t, store, encodePair(s, snap), fullRoot)
	full, err := castore.GetNode(store, fullRoot)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := castore.GetNode(store, deltaRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.NodeRefs) != 1 {
		t.Fatal("fixture's second root is not a delta root")
	}
	return store, fullRoot, full.LeafRefs, delta.LeafRefs
}

// FuzzUnchunkForest plants arbitrary bytes as a forest root's payload,
// framed as a real node and stored under its real key next to valid
// page and table chunks (and, with delta set, referencing a valid
// parent root), then reads the forest back and decodes it. The result
// must be spaces or a typed error, never a panic, with allocation
// bounded by the payload: no count in the payload may size anything
// before the bytes that back it have been seen.
func FuzzUnchunkForest(f *testing.F) {
	store, fullRoot, fullLeaves, deltaLeaves := fuzzFixture(f)
	f.Fuzz(func(t *testing.T, payload []byte, delta bool) {
		var nodeRefs []castore.Key
		leafRefs := fullLeaves
		if delta {
			nodeRefs, leafRefs = []castore.Key{fullRoot}, deltaLeaves
		}
		raw := castore.BuildNode(nodeRefs, leafRefs, payload)
		key := castore.KeyOf(raw)
		if had, _ := store.Has(key); !had {
			if err := store.Put(key, raw); err != nil {
				t.Fatal(err)
			}
			defer store.Delete(key)
		}

		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		forest, err := UnchunkForest(store, key)
		if err == nil {
			_, err = DecodeForest(forest)
		}
		runtime.ReadMemStats(&after)

		if err != nil && !errors.As(err, new(*ImageFormatError)) && !errors.As(err, new(*ImageVersionError)) {
			t.Fatalf("got %v, want spaces, *ImageFormatError or *ImageVersionError", err)
		}
		// A payload byte can legitimately cost kilobytes — a 9-byte copy
		// op re-lists the parent's pages, a 5-byte space record builds a
		// 16 KiB space — but never the megabytes a count-sized
		// allocation takes.
		limit := uint64(4<<20 + 64<<10*len(payload))
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Fatalf("a %d-byte payload allocated %d bytes, limit %d", len(payload), grew, limit)
		}
	})
}
