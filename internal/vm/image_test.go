package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/castore"
)

// buildPair returns a space with some content plus its snapshot, with
// divergence written after the snapshot so dirty tracking is live.
func buildPair(t *testing.T) (*Space, *Space) {
	t.Helper()
	s := NewSpace()
	if err := s.SetPerm(0, 1<<22, PermRW); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := s.WriteU64(Addr(i*PageSize), uint64(i)*7+1); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := s.Snapshot()
	// Diverge on three pages only; the rest stay pointer-shared.
	for _, pg := range []int{2, 3, 9} {
		if err := s.WriteU64(Addr(pg*PageSize)+8, 0xdead0000+uint64(pg)); err != nil {
			t.Fatal(err)
		}
	}
	return s, snap
}

func encodePair(cur, snap *Space) *Forest {
	e := NewForestEncoder()
	e.Add(cur)
	e.Add(snap)
	e.LinkSnapshot(cur, snap)
	return e.Encode()
}

func readBack(t *testing.T, s *Space, pages int) []uint64 {
	t.Helper()
	out := make([]uint64, 0, pages*2)
	for i := 0; i < pages; i++ {
		a, err := s.ReadU64(Addr(i * PageSize))
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.ReadU64(Addr(i*PageSize) + 8)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a, b)
	}
	return out
}

func TestForestRoundTripContent(t *testing.T) {
	cur, snap := buildPair(t)
	img := encodePair(cur, snap)
	spaces, err := DecodeForest(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(spaces) != 2 {
		t.Fatalf("got %d spaces", len(spaces))
	}
	rc, rs := spaces[0], spaces[1]
	for name, pair := range map[string][2]*Space{"cur": {cur, rc}, "snap": {snap, rs}} {
		want := readBack(t, pair[0], 16)
		got := readBack(t, pair[1], 16)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s word %d: %#x != %#x", name, i, got[i], want[i])
			}
		}
		if pair[0].MappedPages() != pair[1].MappedPages() {
			t.Fatalf("%s mapped pages %d != %d", name, pair[1].MappedPages(), pair[0].MappedPages())
		}
	}
}

// The restored pair must preserve page identity sharing: unchanged pages
// are the same object in cur and snap, so DeltaRuns, CleanSince and an
// incremental Resnap see exactly the pre-serialization divergence.
func TestForestRoundTripPreservesSharing(t *testing.T) {
	cur, snap := buildPair(t)
	wantRuns := DeltaRuns(cur, snap, 0, 1<<22, 0)
	img := encodePair(cur, snap)
	spaces, err := DecodeForest(img)
	if err != nil {
		t.Fatal(err)
	}
	rc, rs := spaces[0], spaces[1]
	gotRuns := DeltaRuns(rc, rs, 0, 1<<22, 0)
	if len(gotRuns) != len(wantRuns) {
		t.Fatalf("delta runs %v != %v", gotRuns, wantRuns)
	}
	for i := range wantRuns {
		if gotRuns[i] != wantRuns[i] {
			t.Fatalf("delta runs %v != %v", gotRuns, wantRuns)
		}
	}
	if rc.CleanSince(rs) != cur.CleanSince(snap) {
		t.Fatal("CleanSince proof changed across round trip")
	}
	// Resnap must stay incremental: only the dirtied tables re-share.
	_, stWant := cur.Resnap(snap)
	_, stGot := rc.Resnap(rs)
	if stWant != stGot {
		t.Fatalf("Resnap stats %+v != %+v", stGot, stWant)
	}
	// Merge against the restored pair reports identical statistics.
	origDst, restDst := NewSpace(), NewSpace()
	for _, d := range []*Space{origDst, restDst} {
		if err := d.SetPerm(0, 1<<22, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	// Note: Resnap above refreshed the snapshots, so both merges see a
	// clean pair — the point is that they agree.
	mWant, err1 := Merge(origDst, cur, snap, 0, 1<<22)
	mGot, err2 := Merge(restDst, rc, rs, 0, 1<<22)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("merge errors diverge: %v vs %v", err1, err2)
	}
	if mWant != mGot {
		t.Fatalf("merge stats %+v != %+v", mGot, mWant)
	}
}

// A clean pair (snapshot just taken) must restore as provably clean, and
// a dirtyAll space as provably not.
func TestForestRoundTripDirtyState(t *testing.T) {
	s := NewSpace()
	if err := s.SetPerm(0, 1<<22, PermRW); err != nil {
		t.Fatal(err)
	}
	snap, _ := s.Snapshot()
	if !s.CleanSince(snap) {
		t.Fatal("fresh pair not clean")
	}
	spaces, err := DecodeForest(encodePair(s, snap))
	if err != nil {
		t.Fatal(err)
	}
	if !spaces[0].CleanSince(spaces[1]) {
		t.Fatal("clean pair restored unclean")
	}

	s.markAllDirty()
	spaces, err = DecodeForest(encodePair(s, snap))
	if err != nil {
		t.Fatal(err)
	}
	if spaces[0].CleanSince(spaces[1]) {
		t.Fatal("dirtyAll pair restored clean")
	}
}

func TestForestEncodeCanonical(t *testing.T) {
	cur, snap := buildPair(t)
	a := encodePair(cur, snap)
	b := encodePair(cur, snap)
	if !bytes.Equal(a.Root(), b.Root()) || !a.Equal(b) {
		t.Fatal("encoding is not deterministic")
	}
	// Keys are the content hashes of what the forest holds.
	for i, p := range a.pages {
		if castore.KeyOf(p) != a.pageKeys[i] {
			t.Fatalf("page %d key is not its content hash", i)
		}
	}
	for i, rec := range a.tables {
		if castore.KeyOf(rec.layout) != rec.chunk {
			t.Fatalf("table %d key is not its layout hash", i)
		}
	}
}

func TestForestDecodeRejectsBadImages(t *testing.T) {
	cur, snap := buildPair(t)
	f := encodePair(cur, snap)
	var ferr *ImageFormatError

	// withTail and withTable return copies of f with one part replaced,
	// leaving f itself intact.
	withTail := func(tail []byte) *Forest {
		g := *f
		g.tail = tail
		return &g
	}
	withTable := func(i int, rec tableRec) *Forest {
		g := *f
		g.tables = append([]tableRec(nil), f.tables...)
		g.tables[i] = rec
		return &g
	}

	// Truncation of the tail at various points, and trailing bytes.
	for _, cut := range []int{0, 3, 5, len(f.tail) / 2, len(f.tail) - 1} {
		if _, err := DecodeForest(withTail(f.tail[:cut])); !errors.As(err, &ferr) {
			t.Fatalf("tail truncated at %d: got %v, want *ImageFormatError", cut, err)
		}
	}
	if _, err := DecodeForest(withTail(append(append([]byte(nil), f.tail...), 0))); !errors.As(err, &ferr) {
		t.Fatalf("trailing byte: got %v, want *ImageFormatError", err)
	}

	// Out-of-range indices: a page id past the page list, a level-2
	// slot past the table, a root slot naming a missing table, a link
	// naming a missing space.
	rec := f.tables[0]
	pids := append([]uint32(nil), rec.pids...)
	pids[0] = uint32(len(f.pages) + 1)
	if _, err := DecodeForest(withTable(0, tableRec{chunk: rec.chunk, layout: rec.layout, pids: pids})); !errors.As(err, &ferr) {
		t.Fatalf("page id out of range: got %v, want *ImageFormatError", err)
	}
	layout := append([]byte(nil), rec.layout...)
	binary.LittleEndian.PutUint16(layout[2:], tableEntries)
	if _, err := DecodeForest(withTable(0, tableRec{chunk: rec.chunk, layout: layout, pids: rec.pids})); !errors.As(err, &ferr) {
		t.Fatalf("pte index out of range: got %v, want *ImageFormatError", err)
	}
	// Tail layout: u32 spaces, then per space u8 flags, u16 root count,
	// (u16 slot, u32 table id)...; the first root entry starts at 7.
	for name, mutate := range map[string]func(tail []byte){
		"root slot":   func(tail []byte) { binary.LittleEndian.PutUint16(tail[7:], tableEntries) },
		"table id":    func(tail []byte) { binary.LittleEndian.PutUint32(tail[9:], uint32(len(f.tables)+1)) },
		"link target": func(tail []byte) { binary.LittleEndian.PutUint32(tail[len(tail)-4:], 2) },
	} {
		tail := append([]byte(nil), f.tail...)
		mutate(tail)
		if _, err := DecodeForest(withTail(tail)); !errors.As(err, &ferr) {
			t.Fatalf("%s out of range: got %v, want *ImageFormatError", name, err)
		}
	}

	// The untouched forest still decodes: the copies above shared its
	// slices without changing them.
	if _, err := DecodeForest(f); err != nil {
		t.Fatalf("pristine forest: %v", err)
	}
}

// TestForestDecodeBoundsHostileCounts is the regression test for an
// out-of-memory abort: a forest tail whose space count claims 2^31
// entries must fail with *ImageFormatError without first allocating a
// slice sized by the claimed count.
func TestForestDecodeBoundsHostileCounts(t *testing.T) {
	const huge = 1 << 31
	tail := binary.LittleEndian.AppendUint32(nil, huge)
	tail = append(tail, make([]byte, 4096)...) // room for a plausible body
	f := &Forest{tail: tail}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeForest(f)
	runtime.ReadMemStats(&after)

	var ferr *ImageFormatError
	if !errors.As(err, &ferr) {
		t.Fatalf("2^31 space count: got %v, want *ImageFormatError", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(16*len(tail)) {
		t.Fatalf("decoding a %d-byte tail allocated %d bytes", len(tail), grew)
	}
}
