package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// stack builds a sample stack from innermost-first function names; a
// name may carry its file after a '@'.
func stack(fns ...string) []frame {
	out := make([]frame, len(fns))
	for i, fn := range fns {
		out[i] = frame{fn: fn}
		for j := len(fn) - 1; j >= 0; j-- {
			if fn[j] == '@' {
				out[i] = frame{fn: fn[:j], file: fn[j+1:]}
				break
			}
		}
	}
	return out
}

func TestFoldLayers(t *testing.T) {
	cases := []struct {
		name  string
		stack []frame
		want  string
	}{
		{"flate under castore", stack(
			"compress/flate.(*compressor).deflate",
			"compress/flate.(*Writer).Close",
			"repro/internal/castore.encodeBlob",
			"repro/internal/castore.(*MemStore).Put",
			"repro.(*Session).Suspend"), "castore"},
		{"sha256 under castore", stack(
			"crypto/sha256.block",
			"repro/internal/castore.KeyOf",
			"repro/internal/vm.ChunkForest@/src/internal/vm/chunk.go"), "castore"},
		{"ChunkForest under image", stack(
			"runtime.memmove",
			"repro/internal/vm.ChunkForest@/src/internal/vm/chunk.go",
			"repro.SaveImage@/src/manifest.go"), "image"},
		{"image encoder", stack(
			"repro/internal/imgenc.(*Writer).Bytes@/src/internal/imgenc/imgenc.go",
			"repro/internal/vm.(*Space).Image@/src/internal/vm/image.go"), "image"},
		{"vm page work", stack(
			"repro/internal/vm.(*Space).Read@/src/internal/vm/vm.go",
			"repro/internal/kernel.(*Env).ReadU64"), "vm"},
		{"StripeProgram closure is workload", stack(
			"repro/internal/serve.StripeProgram.func1.3.1",
			"repro/internal/core.(*RT).ParallelDo.func1",
			"repro/internal/kernel.(*Space).start.func1"), "workload"},
		{"serve queue", stack(
			"sync.(*Cond).Wait",
			"repro/internal/serve.(*Server).worker"), "serve"},
		{"detmake action body is workload", stack(
			"crypto/sha256.(*digest).Write",
			"repro/internal/detmake.DefaultActions.func4",
			"repro/internal/detmake.runAction"), "workload"},
		{"detmake executor", stack(
			"repro/internal/detmake.(*builder).collect",
			"repro/internal/detmake.(*builder).runWave"), "detmake"},
		{"fs checksum", stack(
			"repro/internal/fs.(*FS).Checksum",
			"repro/internal/detmake.(*builder).checksum"), "fs"},
		{"workload kernel", stack(
			"crypto/md5.block",
			"repro/internal/workload.md5Scan"), "workload"},
		{"root package is session", stack(
			"repro.(*Session).Step",
			"repro/internal/serve.(*Server).execSlice"), "session"},
		{"store wrapper charged to castore", stack(
			"time.Now",
			"main.(*tracedStore).Put",
			"repro.(*Session).Suspend"), "castore"},
		{"index wrapper charged to detmake", stack(
			"main.(*tracedIndex).Lookup",
			"repro/internal/detmake.fetchResult"), "detmake"},
		{"harness frames are transparent", stack(
			"sort.Float64s",
			"main.percentile",
			"main.runRegion"), "gc"},
		{"no repo frame is gc", stack(
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker"), "gc"},
	}
	var samples []sample
	var total int64
	for i, c := range cases {
		ns := int64(1000 * (i + 1))
		got := foldLayers([]sample{{stack: c.stack, ns: ns}})
		if got[c.want] != ns || len(got) != 1 {
			t.Errorf("%s: folded to %v, want all %d ns in %s", c.name, got, ns, c.want)
		}
		samples = append(samples, sample{stack: c.stack, ns: ns})
		total += ns
	}
	var sum int64
	for l, ns := range foldLayers(samples) {
		if !knownLayer(l) {
			t.Errorf("fold produced unknown layer %q", l)
		}
		sum += ns
	}
	if sum != total {
		t.Errorf("layers sum to %d ns, samples to %d", sum, total)
	}
}

func knownLayer(l string) bool {
	for _, k := range layers {
		if k == l {
			return true
		}
	}
	return false
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) uint(field int, x uint64) { p.varint(uint64(field)<<3 | 0); p.varint(x) }

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, xs ...uint64) {
	var q pb
	for _, x := range xs {
		q.varint(x)
	}
	p.bytes(field, q.b)
}

// TestParseProfile decodes a hand-encoded profile in runtime/pprof's
// shape: two value types, packed and unpacked repeated fields, and a
// location holding an inlined call (lines innermost first).
func TestParseProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"compress/flate.(*compressor).deflate", "/go/src/compress/flate/deflate.go",
		"repro/internal/castore.encodeBlob", "/src/internal/castore/codec.go",
		"repro/internal/vm.ChunkForest", "/src/internal/vm/chunk.go",
		"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"}
	var prof pb
	for _, typ := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pb
		vt.uint(1, typ[0])
		vt.uint(2, typ[1])
		prof.bytes(1, vt.b)
	}
	// Sample 1: flate inlined into encodeBlob, called from ChunkForest.
	var s1 pb
	s1.packed(1, 1, 2)
	s1.packed(2, 1, 10_000_000)
	prof.bytes(2, s1.b)
	// Sample 2: a GC worker, fields unpacked.
	var s2 pb
	s2.uint(1, 3)
	s2.uint(2, 1)
	s2.uint(2, 30_000_000)
	prof.bytes(2, s2.b)
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{1, []uint64{1, 2}}, {2, []uint64{3}}, {3, []uint64{4}}} {
		var l pb
		l.uint(1, loc.id)
		l.uint(3, 0x1000*loc.id)
		for _, fn := range loc.fns {
			var line pb
			line.uint(1, fn)
			line.uint(2, 42)
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
	}
	for id := uint64(1); id <= 4; id++ {
		var fn pb
		fn.uint(1, id)
		fn.uint(2, 3+2*id)
		fn.uint(3, 3+2*id)
		fn.uint(4, 4+2*id)
		prof.bytes(5, fn.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.uint(12, 10_000_000) // period
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("parsed %d samples, want 2", len(samples))
	}
	want := []frame{
		{"compress/flate.(*compressor).deflate", "/go/src/compress/flate/deflate.go"},
		{"repro/internal/castore.encodeBlob", "/src/internal/castore/codec.go"},
		{"repro/internal/vm.ChunkForest", "/src/internal/vm/chunk.go"},
	}
	if got := samples[0].stack; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("sample 1 stack %v, want %v", got, want)
	}
	folded := foldLayers(samples)
	if folded["castore"] != 10_000_000 || folded["gc"] != 30_000_000 || len(folded) != 2 {
		t.Errorf("folded %v, want castore 10ms and gc 30ms", folded)
	}

	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parseProfile accepted a non-gzip input")
	}
}
