package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The typed bulk accessors (ReadU32s, WriteU32s, ReadF64s, WriteF64s)
// encode and decode in place on the page frames. Their contract is the
// byte path's: a typed access behaves exactly like Read or Write of the
// little-endian encoding of the same elements, faults and all.

// typedAcc drives one typed accessor pair through uint64 element values.
type typedAcc struct {
	name  string
	size  int
	write func(s *Space, addr Addr, vals []uint64) error
	read  func(s *Space, addr Addr, vals []uint64) error
	put   func(b []byte, v uint64)
}

var typedAccs = []typedAcc{
	{
		name: "U32", size: 4,
		write: func(s *Space, addr Addr, vals []uint64) error {
			src := make([]uint32, len(vals))
			for i, v := range vals {
				src[i] = uint32(v)
			}
			return s.WriteU32s(addr, src)
		},
		read: func(s *Space, addr Addr, vals []uint64) error {
			dst := make([]uint32, len(vals))
			for i := range dst {
				dst[i] = ^uint32(0) // a lazy zero page must overwrite it
			}
			err := s.ReadU32s(addr, dst)
			for i, v := range dst {
				vals[i] = uint64(v)
			}
			return err
		},
		put: func(b []byte, v uint64) { binary.LittleEndian.PutUint32(b, uint32(v)) },
	},
	{
		name: "F64", size: 8,
		write: func(s *Space, addr Addr, vals []uint64) error {
			src := make([]float64, len(vals))
			for i, v := range vals {
				src[i] = math.Float64frombits(v)
			}
			return s.WriteF64s(addr, src)
		},
		read: func(s *Space, addr Addr, vals []uint64) error {
			dst := make([]float64, len(vals))
			for i := range dst {
				dst[i] = math.Float64frombits(^uint64(0))
			}
			err := s.ReadF64s(addr, dst)
			for i, v := range dst {
				vals[i] = math.Float64bits(v)
			}
			return err
		},
		put: binary.LittleEndian.PutUint64,
	},
}

// Two four-page windows are mapped: one at address 0 and one whose
// first page is the last page before a level-1 table boundary.
const l1Span = 1 << l1Shift

var typedWindows = []Addr{0, l1Span - PageSize}

const typedWindowSize = 4 * PageSize

// typedSpace builds the space under test in one of the page states,
// plus the space it shares pages with (nil when it shares none). The
// build is deterministic, so two calls give identical spaces.
//
//   - lazy: mapped, no backing pages;
//   - owned: every page written, privately owned;
//   - snapshot: owned, then snapshotted (tables and pages shared COW);
//   - copyall: a CopyAllFrom clone of an owned space.
//
// fault then takes away access to the page after the one holding addr:
// "readonly" leaves PermR, "noaccess" PermNone.
func typedSpace(t *testing.T, state, fault string, addr Addr) (s, shared *Space) {
	t.Helper()
	s = NewSpace()
	rng := rand.New(rand.NewSource(7))
	for _, w := range typedWindows {
		mustSetPerm(t, s, w, typedWindowSize, PermRW)
		if state == "lazy" {
			continue
		}
		data := make([]byte, typedWindowSize)
		rng.Read(data)
		if err := s.Write(w, data); err != nil {
			t.Fatal(err)
		}
	}
	switch state {
	case "snapshot":
		shared, _ = s.Snapshot()
	case "copyall":
		shared, s = s, NewSpace()
		s.CopyAllFrom(shared)
	}
	next := alignDown(addr) + PageSize
	switch fault {
	case "readonly":
		mustSetPerm(t, s, next, PageSize, PermR)
	case "noaccess":
		mustSetPerm(t, s, next, PageSize, PermNone)
	}
	return s, shared
}

// dumpWindows returns every window byte and permission of s, read
// straight from the page tables so unreadable pages show too.
func dumpWindows(s *Space) []byte {
	var out []byte
	for _, w := range typedWindows {
		for a := w; a < w+typedWindowSize; a += PageSize {
			e := s.entry(a)
			out = append(out, byte(e.perm))
			if e.pg == nil {
				out = append(out, make([]byte, PageSize)...)
			} else {
				out = append(out, e.pg.data[:]...)
			}
		}
	}
	return out
}

// windowOffset is where the byte at a sits in dumpWindows' output.
func windowOffset(a Addr) int {
	for i, w := range typedWindows {
		if a >= w && a < w+typedWindowSize {
			pages := i*typedWindowSize/PageSize + int(a-w)/PageSize
			return pages*(1+PageSize) + 1 + int(a&pageMask)
		}
	}
	panic(fmt.Sprintf("address %#x outside the windows", a))
}

// dirtyPages lists the pages s has marked dirty, in address order.
func dirtyPages(s *Space) []Addr {
	var out []Addr
	for l1, db := range s.dirty {
		if db == nil {
			continue
		}
		db.forEachSetBit(0, tableEntries, func(l2 int) {
			out = append(out, Addr(l1)<<l1Shift|Addr(l2)<<l2Shift)
		})
	}
	return out
}

// sameDirty reports whether a and b carry identical dirty marks.
func sameDirty(a, b *Space) bool {
	if a.dirtyAll != b.dirtyAll {
		return false
	}
	for l1 := range a.dirty {
		da, db := a.dirty[l1], b.dirty[l1]
		if (da == nil) != (db == nil) || da != nil && *da != *db {
			return false
		}
	}
	return true
}

// sameFault checks that typed and byte accesses failed alike: both
// succeeded, or both returned an *AccessError with the same fields.
func sameFault(t *testing.T, name string, typed, byteErr error) {
	t.Helper()
	if typed == nil && byteErr == nil {
		return
	}
	var ta, ba *AccessError
	if !errors.As(typed, &ta) || !errors.As(byteErr, &ba) || *ta != *ba {
		t.Fatalf("%s: typed access returned %v, byte access %v", name, typed, byteErr)
	}
}

func TestTypedAccessMatchesBytePath(t *testing.T) {
	states := []string{"lazy", "owned", "snapshot", "copyall"}
	faults := []string{"none", "readonly", "noaccess"}
	offsets := []Addr{0, 4, 1, PageSize - 4}
	rng := rand.New(rand.NewSource(1))
	for _, acc := range typedAccs {
		// Counts: one element, a few, more than a page's worth, and
		// enough to run off the end of the window into unmapped space.
		counts := []int{1, 3, PageSize/acc.size + 77, typedWindowSize/acc.size + 4}
		for _, w := range typedWindows {
			for _, off := range offsets {
				addr := w + off
				for _, n := range counts {
					for _, state := range states {
						for _, fault := range faults {
							name := fmt.Sprintf("%s/%#x/n=%d/%s/%s", acc.name, addr, n, state, fault)
							vals := make([]uint64, n)
							for i := range vals {
								vals[i] = rng.Uint64()
							}
							checkTypedWrite(t, name, acc, state, fault, addr, vals)
							checkTypedRead(t, name, acc, state, fault, addr, n)
						}
					}
				}
			}
		}
	}
}

func checkTypedWrite(t *testing.T, name string, acc typedAcc, state, fault string, addr Addr, vals []uint64) {
	t.Helper()
	enc := make([]byte, acc.size*len(vals))
	for i, v := range vals {
		acc.put(enc[acc.size*i:], v)
	}
	typed, typedShared := typedSpace(t, state, fault, addr)
	ref, refShared := typedSpace(t, state, fault, addr)
	var sharedBefore []byte
	if typedShared != nil {
		sharedBefore = dumpWindows(typedShared)
	}
	want := dumpWindows(typed)
	wantDirty := dirtyPages(typed)

	typedErr := acc.write(typed, addr, vals)
	byteErr := ref.Write(addr, enc)
	sameFault(t, name, typedErr, byteErr)

	// Independently of the byte path: the write transfers the encoding
	// up to the faulting address, changes no other byte, and marks
	// exactly the pages it wrote to.
	prefix := len(enc)
	var ae *AccessError
	if errors.As(typedErr, &ae) {
		prefix = int(ae.Addr - addr)
	}
	for i := 0; i < prefix; i++ {
		want[windowOffset(addr+Addr(i))] = enc[i]
	}
	if !bytes.Equal(dumpWindows(typed), want) {
		t.Fatalf("%s: typed write did not change exactly the %d bytes before the fault", name, prefix)
	}
	if prefix > 0 {
		for pg := alignDown(addr); pg <= alignDown(addr+Addr(prefix-1)); pg += PageSize {
			wantDirty = append(wantDirty, pg)
		}
		slices.Sort(wantDirty)
		wantDirty = slices.Compact(wantDirty)
	}
	if got := dirtyPages(typed); !slices.Equal(got, wantDirty) {
		t.Fatalf("%s: typed write marked pages %#x dirty, want %#x", name, got, wantDirty)
	}
	if !bytes.Equal(dumpWindows(typed), dumpWindows(ref)) {
		t.Fatalf("%s: typed write left different bytes than the byte Write", name)
	}
	if !sameDirty(typed, ref) {
		t.Fatalf("%s: typed write left different dirty marks than the byte Write", name)
	}
	if typedShared != nil {
		if !bytes.Equal(dumpWindows(typedShared), sharedBefore) {
			t.Fatalf("%s: typed write changed the %s's pages", name, state)
		}
		if !sameDirty(typedShared, refShared) {
			t.Fatalf("%s: typed write changed the %s's dirty marks", name, state)
		}
	}
	if typedErr == nil {
		got := make([]byte, len(enc))
		if err := typed.Read(addr, got); err != nil {
			t.Fatalf("%s: read back: %v", name, err)
		}
		if !bytes.Equal(got, enc) {
			t.Fatalf("%s: byte Read after typed write is not the little-endian encoding", name)
		}
	}
}

func checkTypedRead(t *testing.T, name string, acc typedAcc, state, fault string, addr Addr, n int) {
	t.Helper()
	s, _ := typedSpace(t, state, fault, addr)
	before := dumpWindows(s)
	got := make([]uint64, n)
	typedErr := acc.read(s, addr, got)
	buf := make([]byte, acc.size*n)
	byteErr := s.Read(addr, buf)
	sameFault(t, name, typedErr, byteErr)
	if !bytes.Equal(dumpWindows(s), before) {
		t.Fatalf("%s: typed read changed the space", name)
	}
	if typedErr != nil {
		return
	}
	want := make([]byte, acc.size)
	for i, v := range got {
		acc.put(want, v)
		if !bytes.Equal(want, buf[acc.size*i:acc.size*(i+1)]) {
			t.Fatalf("%s: element %d decodes to %x, byte Read has %x", name, i, want, buf[acc.size*i:acc.size*(i+1)])
		}
	}
}

// TestTypedAccessAllocatesNothing pins the point of the in-place
// accessors: on warm owned pages a typed access allocates nothing, at
// any size or alignment.
func TestTypedAccessAllocatesNothing(t *testing.T) {
	s := benchSpace(64)
	for _, addr := range []Addr{PageSize, PageSize + 2, 2*PageSize - 30} {
		for _, size := range []int{128, 64 << 10} {
			u32 := make([]uint32, size/4)
			f64 := make([]float64, size/8)
			for _, access := range []struct {
				name string
				call func() error
			}{
				{"ReadU32s", func() error { return s.ReadU32s(addr, u32) }},
				{"WriteU32s", func() error { return s.WriteU32s(addr, u32) }},
				{"ReadF64s", func() error { return s.ReadF64s(addr, f64) }},
				{"WriteF64s", func() error { return s.WriteF64s(addr, f64) }},
			} {
				if err := access.call(); err != nil {
					t.Fatalf("%s at %#x: %v", access.name, addr, err)
				}
				if allocs := testing.AllocsPerRun(20, func() { _ = access.call() }); allocs != 0 {
					t.Errorf("%s of %d bytes at %#x: %v allocations per call, want 0", access.name, size, addr, allocs)
				}
			}
		}
	}
}
