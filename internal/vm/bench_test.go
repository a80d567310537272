package vm

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for the primitives every higher layer's cost reduces
// to: bulk COW copies, snapshots, and merges with varying dirtiness.

func benchSpace(pages int) *Space {
	s := NewSpace()
	span := uint64((pages + tableEntries - 1) / tableEntries * tableEntries * PageSize)
	if span == 0 {
		span = tableEntries * PageSize
	}
	if err := s.SetPerm(0, span, PermRW); err != nil {
		panic(err)
	}
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	for p := 0; p < pages; p++ {
		if err := s.Write(Addr(p*PageSize), buf); err != nil {
			panic(err)
		}
	}
	return s
}

func BenchmarkCopyAllFrom(b *testing.B) {
	for _, pages := range []int{16, 1024, 8192} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			src := benchSpace(pages)
			dst := NewSpace()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.CopyAllFrom(src)
			}
		})
	}
}

func BenchmarkSnapshot(b *testing.B) {
	src := benchSpace(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, _ := src.Snapshot()
		snap.Free()
	}
}

// BenchmarkForkDirtyMerge times the full private-workspace cycle — COW
// fork, snapshot, dirtying N pages, merge back — which is the unit of
// cost behind every thread join in the system. (Timing only the merge
// would need per-iteration untimed setup that dwarfs the measured work.)
func BenchmarkForkDirtyMerge(b *testing.B) {
	for _, dirty := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("dirty=%d", dirty), func(b *testing.B) {
			parent := benchSpace(1024)
			buf := make([]byte, PageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				child := NewSpace()
				child.CopyAllFrom(parent)
				snap, _ := child.Snapshot()
				for p := 0; p < dirty; p++ {
					if err := child.Write(Addr(p*PageSize), buf); err != nil {
						b.Fatal(err)
					}
				}
				dst := NewSpace()
				dst.CopyAllFrom(parent)
				if _, err := Merge(dst, child, snap, 0, tableEntries*PageSize); err != nil {
					b.Fatal(err)
				}
				child.Free()
				snap.Free()
				dst.Free()
			}
		})
	}
}

func BenchmarkWriteCOWBreak(b *testing.B) {
	src := benchSpace(64)
	var word [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := NewSpace()
		dst.CopyAllFrom(src)
		// First write to a shared page: table split + page copy.
		if err := dst.Write(0, word[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkReadWrite(b *testing.B) {
	s := benchSpace(256)
	buf := make([]byte, 256*PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Read(0, buf); err != nil {
			b.Fatal(err)
		}
		if err := s.Write(0, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(2 * len(buf)))
}

// Page-spanning bulk access benchmarks for Read and Write, which walk
// one readSpan or writeSpan per page: one pte lookup serves both the
// permission check and the data access. The "cowbreak" variant re-shares the pages each iteration so every
// full-page store exercises the fresh-page install path (no read-copy);
// "owned" writes through already-private pages, the steady-state loop.

// benchSpanPages is sized to cross a level-1 table boundary so the walk
// exercises the table-cursor reload, not just one cached table.
const benchSpanPages = tableEntries + 64

func BenchmarkPageSpanWrite(b *testing.B) {
	buf := make([]byte, benchSpanPages*PageSize)
	for i := range buf {
		buf[i] = byte(i >> 4)
	}
	b.Run("owned", func(b *testing.B) {
		s := benchSpace(benchSpanPages)
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Write(0, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cowbreak", func(b *testing.B) {
		src := benchSpace(benchSpanPages)
		s := NewSpace()
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s.CopyAllFrom(src) // restore sharing: every page write must COW
			b.StartTimer()
			if err := s.Write(0, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unaligned", func(b *testing.B) {
		// Offset by half a page: every store is partial, so the walk cost
		// is the same but the fresh-install fast path never applies.
		s := benchSpace(benchSpanPages)
		p := buf[:len(buf)-PageSize]
		b.SetBytes(int64(len(p)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Write(PageSize/2, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPageSpanRead(b *testing.B) {
	s := benchSpace(benchSpanPages)
	buf := make([]byte, benchSpanPages*PageSize)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Read(0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTypedAccess times the typed bulk accessors on warm owned
// pages: small (16-element) and large (64 KiB) accesses, page-aligned
// and unaligned. The unaligned small access straddles a page boundary
// and the unaligned large one starts 2 bytes into a page, so both carry
// elements that cross pages.
func BenchmarkTypedAccess(b *testing.B) {
	s := benchSpace(64)
	for _, size := range []struct {
		name      string
		u32, f64  int  // elements per access
		unaligned Addr // start of the unaligned access
	}{
		{"small", 16, 16, 2*PageSize - 30},
		{"large", 16 << 10, 8 << 10, PageSize + 2},
	} {
		u32 := make([]uint32, size.u32)
		f64 := make([]float64, size.f64)
		for _, align := range []string{"aligned", "unaligned"} {
			addr := Addr(PageSize)
			if align == "unaligned" {
				addr = size.unaligned
			}
			name := size.name + "/" + align
			b.Run("ReadU32s/"+name, func(b *testing.B) {
				b.SetBytes(int64(4 * len(u32)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := s.ReadU32s(addr, u32); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("WriteU32s/"+name, func(b *testing.B) {
				b.SetBytes(int64(4 * len(u32)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := s.WriteU32s(addr, u32); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("ReadF64s/"+name, func(b *testing.B) {
				b.SetBytes(int64(8 * len(f64)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := s.ReadF64s(addr, f64); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("WriteF64s/"+name, func(b *testing.B) {
				b.SetBytes(int64(8 * len(f64)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := s.WriteF64s(addr, f64); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
