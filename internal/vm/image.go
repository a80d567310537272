package vm

// Checkpoint capture of a *forest* of spaces — typically every space's
// pagemap plus its merge snapshot for a whole kernel space tree.
//
// Spaces in this system are not independent byte arrays: pages and whole
// level-2 tables are shared copy-on-write between a space and its
// snapshot, between parent and child replicas, and across barrier
// generations. That sharing is semantically load-bearing — Merge selects
// pages by identity, Resnap re-shares only diverged tables, CopyFrom
// skips tables already pointer-shared, and the kernel's virtual-time
// cost model charges exactly the sharing that must be (re)established.
// A capture that materialized each space independently would restore
// the same bytes but a different identity graph, and a resumed run
// would charge different virtual times than the uninterrupted one.
//
// The encoder therefore captures the object graph itself: every
// distinct page and table is recorded once, in the deterministic order
// of first encounter along a canonical walk (spaces in Add order,
// level-1 slots ascending, level-2 entries ascending), and spaces
// reference them by index. A space and its snapshot are thus
// automatically delta-encoded: everything unchanged since the snapshot
// is one shared table or page reference, and only diverged content
// carries payload. Dirty bitmaps and the (space, snapshot) identity
// links are part of the capture, so dirty-guided merges, CleanSince
// proofs and incremental Resnap behave identically after a restore —
// including the virtual times they charge.
//
// A capture is a Forest value already in the shape it is persisted in:
// the distinct page contents with their content keys, one layout record
// per table with its page-id list, and a tail of space records and
// snapshot links. ChunkForest (chunk.go) stores that value as
// content-addressed chunks under one root node, UnchunkForest reads it
// back, and DecodeForest rebuilds spaces from it; there is no other
// serialized form. The value is canonical: identical forest state
// produces identical pages, records and tail — hence identical chunks
// and root — which is what makes golden tests of the persisted form
// meaningful.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/castore"
	"repro/internal/imgenc"
)

// ImageFormatError reports a structurally invalid, truncated or
// corrupted forest: a damaged root payload, a chunk of the wrong shape,
// or an index out of range.
type ImageFormatError struct {
	Offset int    // byte offset where decoding failed (best effort)
	Msg    string // what was wrong
}

func (e *ImageFormatError) Error() string {
	return fmt.Sprintf("vm: bad image at byte %d: %s", e.Offset, e.Msg)
}

// ImageVersionError reports a forest root written by a format version
// this decoder does not understand.
type ImageVersionError struct {
	Version byte // version found in the image
	Max     byte // newest version this decoder accepts
}

func (e *ImageVersionError) Error() string {
	return fmt.Sprintf("vm: image version %d not supported (max %d)", e.Version, e.Max)
}

func formatErrorf(off int, format string, args ...any) *ImageFormatError {
	return &ImageFormatError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

// Forest is one captured space forest in its persisted shape. It is
// immutable once built: ForestEncoder.Encode copies every page it
// records, so the captured spaces may keep running.
type Forest struct {
	pages    [][]byte      // distinct page contents, PageSize bytes each
	pageKeys []castore.Key // content key of each page
	tables   []tableRec    // one record per distinct table
	tail     []byte        // space records, then snapshot links
}

// tableRec is one table instance: the chunk holding its layout (which
// level-2 slots are mapped, with what permissions) plus its per-slot
// page ids (0 = no page, else a 1-based index into the forest's pages).
type tableRec struct {
	chunk  castore.Key
	layout []byte // u16 slot count n, then n × (u16 slot, u8 perm)
	pids   []uint32
}

// Size is the forest's payload in bytes: page contents, table records
// and the tail.
func (f *Forest) Size() int {
	n := len(f.pages)*PageSize + len(f.tail)
	for _, rec := range f.tables {
		n += len(rec.layout) + 4*len(rec.pids)
	}
	return n
}

// ForestEncoder captures a set of spaces preserving their full COW
// sharing graph. Add every space first, then record snapshot links, then
// Encode. The encoder only reads the spaces; they remain usable.
type ForestEncoder struct {
	spaces   []*Space
	spaceIdx map[*Space]int
	links    [][2]int // (cur, ref) pairs whose snapshot identity must survive
}

// NewForestEncoder returns an empty encoder.
func NewForestEncoder() *ForestEncoder {
	return &ForestEncoder{spaceIdx: make(map[*Space]int)}
}

// Add registers a space for encoding and returns its index in the image.
// Adding the same space twice returns the same index.
func (e *ForestEncoder) Add(s *Space) int {
	if i, ok := e.spaceIdx[s]; ok {
		return i
	}
	i := len(e.spaces)
	e.spaces = append(e.spaces, s)
	e.spaceIdx[s] = i
	return i
}

// LinkSnapshot records that ref is cur's current snapshot (their
// identity tokens match), so the decoder re-establishes the relationship
// with a fresh token pair. Calls for pairs whose tokens do not match are
// ignored — the relationship did not hold, so none is restored.
func (e *ForestEncoder) LinkSnapshot(cur, ref *Space) {
	if cur == nil || ref == nil || cur.snapID == 0 || ref.snapOf != cur.snapID {
		return
	}
	ci, ok1 := e.spaceIdx[cur]
	ri, ok2 := e.spaceIdx[ref]
	if ok1 && ok2 {
		e.links = append(e.links, [2]int{ci, ri})
	}
}

// Encode captures the registered forest: each distinct page is copied
// and keyed once, so persisting the forest hashes nothing again.
func (e *ForestEncoder) Encode() *Forest {
	// Pass 1: assign page and table ids in canonical first-encounter order.
	tableIdx := make(map[*table]int)
	pageIdx := make(map[*page]int)
	var tables []*table
	var pages []*page
	for _, s := range e.spaces {
		for _, t := range s.root {
			if t == nil {
				continue
			}
			if _, ok := tableIdx[t]; ok {
				continue
			}
			tableIdx[t] = len(tables)
			tables = append(tables, t)
			for l2 := range t.ptes {
				pg := t.ptes[l2].pg
				if pg == nil {
					continue
				}
				if _, ok := pageIdx[pg]; !ok {
					pageIdx[pg] = len(pages)
					pages = append(pages, pg)
				}
			}
		}
	}

	// Pass 2: record pages, tables, then the space and link tail.
	f := &Forest{
		pages:    make([][]byte, len(pages)),
		pageKeys: make([]castore.Key, len(pages)),
		tables:   make([]tableRec, len(tables)),
	}
	buf := make([]byte, len(pages)*PageSize)
	for i, pg := range pages {
		p := buf[i*PageSize : (i+1)*PageSize : (i+1)*PageSize]
		copy(p, pg.data[:])
		f.pages[i] = p
		f.pageKeys[i] = castore.KeyOf(p)
	}

	for i, t := range tables {
		n := 0
		for l2 := range t.ptes {
			if t.ptes[l2].mapped() {
				n++
			}
		}
		layout := make([]byte, 0, 2+3*n)
		layout = binary.LittleEndian.AppendUint16(layout, uint16(n))
		pids := make([]uint32, 0, n)
		for l2 := range t.ptes {
			pe := t.ptes[l2]
			if !pe.mapped() {
				continue
			}
			layout = binary.LittleEndian.AppendUint16(layout, uint16(l2))
			layout = append(layout, byte(pe.perm))
			if pe.pg == nil {
				pids = append(pids, 0)
			} else {
				pids = append(pids, uint32(pageIdx[pe.pg]+1))
			}
		}
		f.tables[i] = tableRec{chunk: castore.KeyOf(layout), layout: layout, pids: pids}
	}

	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.spaces)))
	for _, s := range e.spaces {
		var flags byte
		if s.dirtyAll {
			flags |= 1
		}
		b = append(b, flags)
		n := 0
		for _, t := range s.root {
			if t != nil {
				n++
			}
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(n))
		for l1, t := range s.root {
			if t == nil {
				continue
			}
			b = binary.LittleEndian.AppendUint16(b, uint16(l1))
			b = binary.LittleEndian.AppendUint32(b, uint32(tableIdx[t]+1))
		}
		n = 0
		for _, db := range s.dirty {
			if db != nil {
				n++
			}
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(n))
		for l1, db := range s.dirty {
			if db == nil {
				continue
			}
			b = binary.LittleEndian.AppendUint16(b, uint16(l1))
			for _, w := range db {
				b = binary.LittleEndian.AppendUint64(b, w)
			}
		}
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.links)))
	for _, l := range e.links {
		b = binary.LittleEndian.AppendUint32(b, uint32(l[0]))
		b = binary.LittleEndian.AppendUint32(b, uint32(l[1]))
	}
	f.tail = b
	return f
}

// DecodeForest reconstructs the spaces of a forest, restoring the exact
// page/table sharing graph, dirty bitmaps, and snapshot identity links
// (with freshly issued tokens). Every index the forest holds — page ids,
// level-2 slots, root and dirty slots, table ids, link ends — is range
// checked, as is the tail's framing; a violation returns
// *ImageFormatError. The chunk shapes themselves are UnchunkForest's to
// check as the chunks are read.
func DecodeForest(f *Forest) ([]*Space, error) {
	pages := make([]*page, len(f.pages))
	for i, b := range f.pages {
		pg := newPage()
		copy(pg.data[:], b)
		pg.refs.Store(0) // references added as ptes adopt the page
		pages[i] = pg
	}

	tables := make([]*table, len(f.tables))
	for i, rec := range f.tables {
		t := newTable()
		t.refs.Store(0)
		for j, pid := range rec.pids {
			l2 := int(binary.LittleEndian.Uint16(rec.layout[2+3*j:]))
			perm := Perm(rec.layout[2+3*j+2])
			if l2 >= tableEntries {
				return nil, formatErrorf(0, "table %d: pte index %d out of range", i, l2)
			}
			var pg *page
			if pid != 0 {
				if int(pid) > len(pages) {
					return nil, formatErrorf(0, "table %d: page id %d out of range (%d pages)", i, pid, len(pages))
				}
				pg = pages[pid-1]
				pg.refs.Add(1)
			}
			t.ptes[l2] = pte{pg: pg, perm: perm}
		}
		tables[i] = t
	}

	r := &imgenc.Reader{B: f.tail, Wrap: func(off int, msg string) error {
		return &ImageFormatError{Offset: off, Msg: "tail: " + msg}
	}}
	nSpaces := int(r.U32())
	if r.Err == nil && nSpaces > len(r.B) {
		r.Failf("space count %d exceeds tail size", nSpaces)
	}
	var spaces []*Space
	if r.Err == nil {
		spaces = make([]*Space, 0, nSpaces)
	}
	for i := 0; i < nSpaces && r.Err == nil; i++ {
		s := NewSpace()
		s.dirtyAll = r.U8()&1 != 0
		n := int(r.U16())
		for j := 0; j < n && r.Err == nil; j++ {
			l1 := int(r.U16())
			tid := int(r.U32())
			if r.Err != nil {
				break
			}
			if l1 >= tableEntries || tid == 0 || tid > len(tables) {
				r.Failf("root slot %d -> table %d out of range", l1, tid)
				break
			}
			s.root[l1] = tables[tid-1]
			tables[tid-1].refs.Add(1)
		}
		n = int(r.U16())
		for j := 0; j < n && r.Err == nil; j++ {
			l1 := int(r.U16())
			if r.Err != nil {
				break
			}
			if l1 >= tableEntries {
				r.Failf("dirty slot %d out of range", l1)
				break
			}
			db := new(dirtyBits)
			for w := range db {
				db[w] = r.U64()
			}
			s.dirty[l1] = db
		}
		spaces = append(spaces, s)
	}

	nLinks := int(r.U32())
	if r.Err == nil && nLinks*8 > r.Remaining() {
		r.Failf("link count %d exceeds tail size", nLinks)
	}
	for i := 0; i < nLinks && r.Err == nil; i++ {
		ci := int(r.U32())
		ri := int(r.U32())
		if r.Err != nil {
			break
		}
		if ci >= len(spaces) || ri >= len(spaces) {
			r.Failf("snapshot link %d -> %d out of range", ci, ri)
			break
		}
		id := snapshotIDs.Add(1)
		spaces[ci].snapID = id
		spaces[ri].snapOf = id
	}
	if r.Err == nil && r.Remaining() != 0 {
		r.Failf("%d trailing bytes", r.Remaining())
	}
	if r.Err != nil {
		return nil, r.Err
	}
	// Every restored object needs at least one reference for the Free
	// accounting to balance; unreferenced pages/tables (possible only in
	// hand-built forests) are simply dropped.
	for _, t := range tables {
		if t.refs.Load() == 0 {
			t.refs.Store(1)
			releaseTable(t)
		}
	}
	return spaces, nil
}
