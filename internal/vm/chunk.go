package vm

// The persisted form of a forest: a castore object graph of page
// chunks, table chunks and one root node. This is the only form a
// checkpoint is stored in. ChunkForest writes a captured Forest as
// chunks without re-parsing anything — the Forest already holds each
// page with its content key and each table layout with its key — and
// UnchunkForest reads the same Forest value back, which DecodeForest
// turns into spaces. A store round trip therefore restores exactly the
// captured identity graph.
//
// Chunk granularity follows the dedup physics of checkpoints:
//
//   - Page chunks are raw 4 KiB page contents keyed by SHA-256. Pages
//     untouched between checkpoints (or identical across sibling
//     sessions forked from one parent) hash to the same key and are
//     stored once.
//   - Table chunks carry only a table's *layout* (which level-2 slots
//     are mapped, with what permissions) — deliberately not its page
//     references. Layout rarely changes between checkpoints, while page
//     references change with every dirtied page; separating them keeps
//     table chunks stable. The page-id lists live in the root, where
//     they delta-encode well.
//   - The root is a castore node whose leaf refs are the literal page
//     and table chunk keys, and whose payload rebuilds the forest's
//     instance lists plus its tail of space records and snapshot
//     links. Identical-content but distinct-identity pages appear as
//     repeated keys in per-instance lists — content addressing dedups
//     the bytes while the lists preserve the identity graph.
//
// Incremental roots: a root may reference its parent root (as a node
// ref, so GC chains stay reachable) and encode its page-key and
// table-record lists as copy/literal ops against the parent's lists. A
// second checkpoint after touching k pages then stores O(k) new chunk
// bytes: k page chunks plus a handful of ops. When little survives
// from the parent, or the chain grows deep, the encoder falls back to
// a self-contained full root.

import (
	"bytes"
	"encoding/binary"

	"repro/internal/castore"
	"repro/internal/imgenc"
)

const (
	chunkRootVersion = 1

	// maxChainDepth bounds how long a delta chain may grow before the
	// encoder emits a self-contained root, bounding restore latency and
	// the blast radius of a damaged ancestor.
	maxChainDepth = 16

	// maxResolveDepth is the decoder's hard cap on parent recursion; a
	// cyclic or absurd chain fails typed instead of recursing forever.
	maxResolveDepth = 64

	// fullRootLiteralPct: when at least this percentage of items would
	// be literal anyway, a delta root saves nothing — emit a full root.
	fullRootLiteralPct = 80
)

// chunkOp is one run of a delta-encoded instance list: count items
// taken either from the root's own literals or from the parent's list
// starting at start.
type chunkOp struct {
	copy  bool
	start int
	count int
}

// ChunkForest stores f's pages and tables as content-addressed chunks
// and returns the key of its root node. When parent is the (non-zero)
// root key of an earlier forest in the same store, the new root is
// delta-encoded against it where profitable; UnchunkForest of the
// returned key yields f either way.
func ChunkForest(store castore.BlobStore, f *Forest, parent castore.Key) (castore.Key, error) {
	for i, key := range f.pageKeys {
		if err := store.Put(key, f.pages[i]); err != nil {
			return castore.Key{}, err
		}
	}
	for _, rec := range f.tables {
		if err := store.Put(rec.chunk, rec.layout); err != nil {
			return castore.Key{}, err
		}
	}

	// Delta against the parent when one is given and enough survives.
	var par *Forest
	var parDepth uint32
	if !parent.IsZero() {
		var err error
		par, parDepth, err = resolveShape(store, parent, 0)
		if err != nil {
			return castore.Key{}, err
		}
	}
	pageOps, tableOps, usePar := planOps(f, par, parDepth)
	var nodeRefs []castore.Key
	var depth uint32
	if usePar {
		nodeRefs = []castore.Key{parent}
		depth = parDepth + 1
	}
	leafRefs, payload := f.rootPayload(pageOps, tableOps, usePar, depth)
	return castore.PutNode(store, nodeRefs, leafRefs, payload)
}

// Root returns the framed full root node of f — the node ChunkForest
// stores for f when it has no parent. It names every page and table
// chunk by key and carries the page-id lists and the tail, so it pins
// the whole forest: equal roots mean equal forests.
func (f *Forest) Root() []byte {
	pageOps, tableOps, _ := planOps(f, nil, 0)
	leafRefs, payload := f.rootPayload(pageOps, tableOps, false, 0)
	return castore.BuildNode(nil, leafRefs, payload)
}

// Equal reports whether f and g hold the same forest: equal roots (page
// and table keys, page-id lists, tail) and equal page and layout bytes.
func (f *Forest) Equal(g *Forest) bool {
	if !bytes.Equal(f.Root(), g.Root()) {
		return false
	}
	for i := range f.pages {
		if !bytes.Equal(f.pages[i], g.pages[i]) {
			return false
		}
	}
	for i := range f.tables {
		if !bytes.Equal(f.tables[i].layout, g.tables[i].layout) {
			return false
		}
	}
	return true
}

// rootPayload assembles a root node's leaf refs (page literals in op
// order, then table chunks) and its payload for the given op lists.
func (f *Forest) rootPayload(pageOps, tableOps []chunkOp, usePar bool, depth uint32) ([]castore.Key, []byte) {
	var leafRefs []castore.Key
	for _, op := range pageOps {
		if !op.copy {
			leafRefs = append(leafRefs, f.pageKeys[op.start:op.start+op.count]...)
		}
	}
	var payload []byte
	payload = append(payload, chunkRootVersion)
	payload = binary.LittleEndian.AppendUint32(payload, depth)
	if usePar {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}

	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(f.pageKeys)))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(pageOps)))
	leaf := 0
	for _, op := range pageOps {
		if op.copy {
			payload = append(payload, 1)
			payload = binary.LittleEndian.AppendUint32(payload, uint32(op.start))
		} else {
			payload = append(payload, 0)
			payload = binary.LittleEndian.AppendUint32(payload, uint32(leaf))
			leaf += op.count
		}
		payload = binary.LittleEndian.AppendUint32(payload, uint32(op.count))
	}

	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(f.tables)))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(tableOps)))
	for _, op := range tableOps {
		if op.copy {
			payload = append(payload, 1)
			payload = binary.LittleEndian.AppendUint32(payload, uint32(op.start))
			payload = binary.LittleEndian.AppendUint32(payload, uint32(op.count))
			continue
		}
		payload = append(payload, 0)
		payload = binary.LittleEndian.AppendUint32(payload, uint32(op.count))
		for _, rec := range f.tables[op.start : op.start+op.count] {
			payload = binary.LittleEndian.AppendUint32(payload, uint32(len(leafRefs)))
			leafRefs = append(leafRefs, rec.chunk)
			payload = binary.LittleEndian.AppendUint16(payload, uint16(len(rec.pids)))
			for _, pid := range rec.pids {
				payload = binary.LittleEndian.AppendUint32(payload, pid)
			}
		}
	}

	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(f.tail)))
	payload = append(payload, f.tail...)
	return leafRefs, payload
}

// UnchunkForest reads back the forest rooted at key, fetching (and
// thereby hash-verifying) every chunk it references and checking each
// chunk's shape: page chunks are PageSize bytes, and a table chunk's
// slot count matches its length and its page-id list. Missing chunks
// surface as *castore.ChunkMissingError, damaged ones as
// *castore.ChunkHashError, and structural nonsense as
// *ImageFormatError.
func UnchunkForest(store castore.BlobStore, root castore.Key) (*Forest, error) {
	f, _, err := resolveShape(store, root, 0)
	if err != nil {
		return nil, err
	}
	f.pages = make([][]byte, len(f.pageKeys))
	for i, key := range f.pageKeys {
		pg, err := store.Get(key)
		if err != nil {
			return nil, err
		}
		if len(pg) != PageSize {
			return nil, formatErrorf(0, "page %d: chunk %s is %d bytes, want %d", i, key, len(pg), PageSize)
		}
		f.pages[i] = pg
	}
	for i := range f.tables {
		rec := &f.tables[i]
		chunk, err := store.Get(rec.chunk)
		if err != nil {
			return nil, err
		}
		if len(chunk) < 2 {
			return nil, formatErrorf(0, "table %d: chunk %s truncated", i, rec.chunk)
		}
		n := int(binary.LittleEndian.Uint16(chunk))
		if len(chunk) != 2+3*n {
			return nil, formatErrorf(0, "table %d: chunk %s is %d bytes, want %d", i, rec.chunk, len(chunk), 2+3*n)
		}
		if n != len(rec.pids) {
			return nil, formatErrorf(0, "table %d: chunk has %d slots, root lists %d page ids", i, n, len(rec.pids))
		}
		rec.layout = chunk
	}
	return f, nil
}

// resolveShape parses a root node and materializes its instance lists
// and tail (no page or table contents), recursing through the parent
// chain to satisfy copy ops. It also returns the root's chain depth.
//
// Nothing is sized or built from the payload until it is known to be
// bounded by the payload itself. The ops are first checked and summed
// against the header counts. Then the counts are checked against what
// a valid forest can name: each table fills at least one root slot in
// the tail, and each page at least one page id in the tables. So the
// tail, which is literal payload, bounds the tables, and the tables'
// page ids bound the pages. Without that bound a 9-byte copy op could
// re-list the parent's whole page list, and a small root could make
// UnchunkForest fetch arbitrarily many pages.
func resolveShape(store castore.BlobStore, key castore.Key, depth int) (*Forest, uint32, error) {
	if depth > maxResolveDepth {
		return nil, 0, formatErrorf(0, "root parent chain deeper than %d", maxResolveDepth)
	}
	node, err := castore.GetNode(store, key)
	if err != nil {
		return nil, 0, err
	}
	r := &imgenc.Reader{B: node.Payload, Wrap: func(off int, msg string) error {
		return &ImageFormatError{Offset: off, Msg: "root " + key.String()[:12] + ": " + msg}
	}}

	if v := r.U8(); r.Err == nil && v != chunkRootVersion {
		return nil, 0, &ImageVersionError{Version: v, Max: chunkRootVersion}
	}
	chainDepth := r.U32()
	hasParent := r.U8() != 0

	par := &Forest{}
	if hasParent {
		if len(node.NodeRefs) == 0 {
			return nil, 0, formatErrorf(r.Off, "delta root without parent node ref")
		}
		par, _, err = resolveShape(store, node.NodeRefs[0], depth+1)
		if err != nil {
			return nil, 0, err
		}
	}
	f := &Forest{}

	nPages := int(r.U32())
	nOps := int(r.U32())
	if r.Err == nil && nOps > r.Remaining() {
		r.Failf("page op count %d exceeds payload", nOps)
	}
	var pageOps []chunkOp
	total := 0
	for i := 0; i < nOps && r.Err == nil; i++ {
		kind := r.U8()
		start := int(r.U32())
		count := int(r.U32())
		if r.Err != nil {
			break
		}
		switch kind {
		case 0:
			if start < 0 || count < 0 || start+count > len(node.LeafRefs) {
				r.Failf("page literal op [%d,+%d) outside %d leaf refs", start, count, len(node.LeafRefs))
			}
		case 1:
			if !hasParent {
				r.Failf("page copy op in root without parent")
			} else if start < 0 || count < 0 || start+count > len(par.pageKeys) {
				r.Failf("page copy op [%d,+%d) outside parent's %d pages", start, count, len(par.pageKeys))
			}
		default:
			r.Failf("unknown page op kind %d", kind)
		}
		total += count
		if r.Err == nil && total > nPages {
			r.Failf("page ops produce more than the %d pages the header gives", nPages)
		}
		pageOps = append(pageOps, chunkOp{copy: kind == 1, start: start, count: count})
	}
	if r.Err == nil && total != nPages {
		r.Failf("page ops produced %d pages, header says %d", total, nPages)
	}

	// Literal table records are parsed into lits as they are read (each
	// takes at least 6 payload bytes); a literal op indexes into lits.
	nTables := int(r.U32())
	nOps = int(r.U32())
	if r.Err == nil && nOps > r.Remaining() {
		r.Failf("table op count %d exceeds payload", nOps)
	}
	var tableOps []chunkOp
	var lits []tableRec
	total = 0
	for i := 0; i < nOps && r.Err == nil; i++ {
		var op chunkOp
		switch kind := r.U8(); kind {
		case 0:
			count := int(r.U32())
			if r.Err == nil && count > r.Remaining() {
				r.Failf("table literal count %d exceeds payload", count)
				break
			}
			op = chunkOp{start: len(lits), count: count}
			for j := 0; j < count && r.Err == nil; j++ {
				leafIdx := int(r.U32())
				npids := int(r.U16())
				if r.Err != nil {
					break
				}
				if leafIdx < 0 || leafIdx >= len(node.LeafRefs) {
					r.Failf("table leaf ref %d outside %d leaf refs", leafIdx, len(node.LeafRefs))
					break
				}
				if 4*npids > r.Remaining() {
					r.Failf("table page-id count %d exceeds payload", npids)
					break
				}
				rec := tableRec{chunk: node.LeafRefs[leafIdx], pids: make([]uint32, npids)}
				for k := range rec.pids {
					rec.pids[k] = r.U32()
				}
				lits = append(lits, rec)
			}
		case 1:
			start := int(r.U32())
			count := int(r.U32())
			if r.Err != nil {
				break
			}
			if !hasParent {
				r.Failf("table copy op in root without parent")
			} else if start < 0 || count < 0 || start+count > len(par.tables) {
				r.Failf("table copy op [%d,+%d) outside parent's %d tables", start, count, len(par.tables))
			}
			op = chunkOp{copy: true, start: start, count: count}
		default:
			r.Failf("unknown table op kind %d", kind)
		}
		total += op.count
		if r.Err == nil && total > nTables {
			r.Failf("table ops produce more than the %d tables the header gives", nTables)
		}
		tableOps = append(tableOps, op)
	}
	if r.Err == nil && total != nTables {
		r.Failf("table ops produced %d tables, header says %d", total, nTables)
	}

	tailLen := int(r.U32())
	if r.Err == nil && tailLen != r.Remaining() {
		r.Failf("tail length %d, %d bytes left", tailLen, r.Remaining())
	}
	f.tail = r.Take(tailLen)
	if r.Err != nil {
		return nil, 0, r.Err
	}

	slots, err := tailRootSlots(f.tail)
	if err != nil {
		return nil, 0, err
	}
	if nTables > slots {
		r.Failf("%d tables, but the tail has %d root slots", nTables, slots)
		return nil, 0, r.Err
	}
	f.tables = make([]tableRec, 0, nTables)
	for _, op := range tableOps {
		src := lits
		if op.copy {
			src = par.tables
		}
		f.tables = append(f.tables, src[op.start:op.start+op.count]...)
	}
	pids := 0
	for i, rec := range f.tables {
		for _, pid := range rec.pids {
			if int(pid) > nPages {
				r.Failf("table %d: page id %d out of range (%d pages)", i, pid, nPages)
				return nil, 0, r.Err
			}
			if pid != 0 {
				pids++
			}
		}
	}
	if nPages > pids {
		r.Failf("%d pages, but the tables list %d page ids", nPages, pids)
		return nil, 0, r.Err
	}
	f.pageKeys = make([]castore.Key, 0, nPages)
	for _, op := range pageOps {
		src := node.LeafRefs
		if op.copy {
			src = par.pageKeys
		}
		f.pageKeys = append(f.pageKeys, src[op.start:op.start+op.count]...)
	}
	return f, chainDepth, nil
}

// tailRootSlots counts the root slots of the space records in a
// forest's tail. Every table of a valid forest fills at least one.
func tailRootSlots(tail []byte) (int, error) {
	r := &imgenc.Reader{B: tail, Wrap: func(off int, msg string) error {
		return &ImageFormatError{Offset: off, Msg: "tail: " + msg}
	}}
	slots := 0
	nSpaces := int(r.U32())
	for i := 0; i < nSpaces && r.Err == nil; i++ {
		r.U8() // flags
		n := int(r.U16())
		r.Take(n * (2 + 4))
		slots += n
		r.Take(int(r.U16()) * (2 + 8*dirtyWords))
	}
	return slots, r.Err
}

// planOps delta-encodes cur's instance lists against par, falling back
// to a self-contained full root (usePar=false, all-literal ops) when
// there is no parent, the chain is deep, or too little survives.
func planOps(cur, par *Forest, parDepth uint32) (pageOps, tableOps []chunkOp, usePar bool) {
	fullPages := []chunkOp{{start: 0, count: len(cur.pageKeys)}}
	fullTables := []chunkOp{{start: 0, count: len(cur.tables)}}
	if len(cur.pageKeys) == 0 {
		fullPages = nil
	}
	if len(cur.tables) == 0 {
		fullTables = nil
	}
	if par == nil || parDepth+1 >= maxChainDepth {
		return fullPages, fullTables, false
	}
	pageOps, pageLit := deltaOps(pageTokens(cur), pageTokens(par))
	tableOps, tableLit := deltaOps(tableTokens(cur), tableTokens(par))
	total := len(cur.pageKeys) + len(cur.tables)
	if total > 0 && (pageLit+tableLit)*100 >= total*fullRootLiteralPct {
		return fullPages, fullTables, false
	}
	return pageOps, tableOps, true
}

// pageTokens serializes a shape's page instances for delta matching.
func pageTokens(s *Forest) []string {
	out := make([]string, len(s.pageKeys))
	for i, k := range s.pageKeys {
		out[i] = string(k[:])
	}
	return out
}

// tableTokens serializes a shape's table records (layout chunk plus
// page-id list — both must match for a parent record to be reused).
func tableTokens(s *Forest) []string {
	out := make([]string, len(s.tables))
	for i, rec := range s.tables {
		b := make([]byte, 0, castore.KeySize+4*len(rec.pids))
		b = append(b, rec.chunk[:]...)
		for _, pid := range rec.pids {
			b = binary.LittleEndian.AppendUint32(b, pid)
		}
		out[i] = string(b)
	}
	return out
}

// deltaOps matches cur against parent and coalesces the result into
// copy/literal runs. Literal ops use start = index into cur (the
// encoder turns those into leaf-ref ranges or inline records).
func deltaOps(cur, parent []string) (ops []chunkOp, literals int) {
	pos := make(map[string][]int, len(parent))
	for j, tok := range parent {
		pos[tok] = append(pos[tok], j)
	}
	// match[i] = parent index reused for cur[i], or -1 for a literal.
	// Prefer continuing the previous run so shifted-but-contiguous
	// regions coalesce into single copy ops.
	match := make([]int, len(cur))
	next := 0
	for i, tok := range cur {
		ps := pos[tok]
		if len(ps) == 0 {
			match[i] = -1
			continue
		}
		m := ps[0]
		for _, p := range ps {
			if p >= next {
				m = p
				break
			}
		}
		match[i] = m
		next = m + 1
	}
	for i := 0; i < len(cur); {
		j := i
		if match[i] < 0 {
			for j < len(cur) && match[j] < 0 {
				j++
			}
			ops = append(ops, chunkOp{start: i, count: j - i})
			literals += j - i
		} else {
			for j < len(cur) && match[j] == match[i]+(j-i) {
				j++
			}
			ops = append(ops, chunkOp{copy: true, start: match[i], count: j - i})
		}
		i = j
	}
	return ops, literals
}
