package castore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// plant stores raw bytes as the stored (encoded) form of key, bypassing
// the codec, whether or not the key was held before.
func plant(t testing.TB, s Store, key Key, stored []byte) {
	t.Helper()
	switch s := s.(type) {
	case *MemStore:
		s.mu.Lock()
		s.chunks[key] = append([]byte(nil), stored...)
		s.sizes[key] = 0
		s.mu.Unlock()
	case *DirStore:
		p := s.path(key)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, stored, 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("plant: unknown store %T", s)
	}
}

// storedForm returns the bytes a store holds for key.
func storedForm(t *testing.T, s Store, key Key) []byte {
	t.Helper()
	switch s := s.(type) {
	case *MemStore:
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.chunks[key]
	case *DirStore:
		b, err := os.ReadFile(s.path(key))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	t.Fatalf("storedForm: unknown store %T", s)
	return nil
}

// referenceEncode is the codec with a fresh flate.Writer per chunk: the
// stored form every earlier version of the store wrote, which reused
// compression state must reproduce byte for byte.
func referenceEncode(b []byte) []byte {
	if allZero(b) {
		return binary.LittleEndian.AppendUint32([]byte{codecZero}, uint32(len(b)))
	}
	var buf bytes.Buffer
	buf.WriteByte(codecFlate)
	buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(b))))
	w, _ := flate.NewWriter(&buf, flate.BestSpeed)
	_, _ = w.Write(b)
	_ = w.Close()
	if buf.Len() < len(b)+1 {
		return buf.Bytes()
	}
	return append([]byte{codecRaw}, b...)
}

// hostileHeaders are stored forms whose length header claims far more
// bytes than the record could hold; the zero record claims 64 MiB so
// hashing the claimed zeros stays quick.
func hostileHeaders() map[string][]byte {
	return map[string][]byte{
		"flate": {codecFlate, 0xF0, 0xFF, 0xFF, 0xFF, 1, 2, 3},
		"zero":  {codecZero, 0, 0, 0, 0x04},
	}
}

// allocDuring returns the bytes allocated while fn runs.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeBoundsHostileHeaders is the regression test for decoding
// that trusted a chunk's length header: a flate record claiming 4 GiB
// from a 3-byte body, or a zero record claiming 64 MiB, must fail as
// *ChunkHashError without allocating the claimed length.
func TestDecodeBoundsHostileHeaders(t *testing.T) {
	key := KeyOf([]byte("the chunk the hostile record stands in for"))
	for name, s := range stores(t) {
		for tag, stored := range hostileHeaders() {
			plant(t, s, key, stored)
			var err error
			grew := allocDuring(func() { _, err = s.Get(key) })
			if !errors.As(err, new(*ChunkHashError)) {
				t.Fatalf("%s/%s: get = %v, want *ChunkHashError", name, tag, err)
			}
			if grew >= 1<<20 {
				t.Fatalf("%s/%s: get of a %d-byte record allocated %d bytes", name, tag, len(stored), grew)
			}
		}
	}
}

// codecCorpus is one chunk of each shape the codec distinguishes.
func codecCorpus() map[string][]byte {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 4096)
	rng.Read(random)
	table := binary.LittleEndian.AppendUint16(nil, 1024) // a full level-2 layout
	for i := 0; i < 1024; i++ {
		table = binary.LittleEndian.AppendUint16(table, uint16(i))
		table = append(table, byte(1+i%3))
	}
	text := bytes.Repeat([]byte("deterministic chunk text; "), 8)[:200]
	return map[string][]byte{
		"zero":       make([]byte, 4096),
		"repetitive": bytes.Repeat([]byte{7, 7, 7, 9}, 1024),
		"random":     random,
		"one-byte":   {0x5a},
		"text":       text,
		"table":      table,
	}
}

// TestStoredBytesUnchanged puts a mixed corpus through one store in
// sequence, with a failed decode partway through, and checks each stored
// form is what a fresh flate.Writer produces and each chunk round-trips
// (the first Get after the failure included: a reused decoder carries no
// state forward). On DirStore this also shows that chunk files written
// with a fresh writer per chunk still decode.
func TestStoredBytesUnchanged(t *testing.T) {
	corpus := codecCorpus()
	order := []string{"repetitive", "zero", "random", "one-byte", "text", "table"}
	garbled := []byte{codecFlate, 0, 16, 0, 0, 0xff, 0xff, 0xff, 0xff}
	badKey := KeyOf([]byte("garbled"))
	for name, s := range stores(t) {
		for i, what := range order {
			b := corpus[what]
			key := KeyOf(b)
			if err := s.Put(key, b); err != nil {
				t.Fatalf("%s/%s: put: %v", name, what, err)
			}
			if got, want := storedForm(t, s, key), referenceEncode(b); !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: stored %d bytes %.16x..., want %d bytes %.16x...", name, what, len(got), got, len(want), want)
			}
			if i == len(order)/2 {
				plant(t, s, badKey, garbled)
				if _, err := s.Get(badKey); !errors.As(err, new(*ChunkHashError)) {
					t.Fatalf("%s: garbled get = %v, want *ChunkHashError", name, err)
				}
			}
		}
		for _, what := range order {
			b := corpus[what]
			got, err := s.Get(KeyOf(b))
			if err != nil || !bytes.Equal(got, b) {
				t.Fatalf("%s/%s: get = %d bytes, %v", name, what, len(got), err)
			}
		}
	}

	dir, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for what, b := range corpus {
		key := KeyOf(b)
		plant(t, dir, key, referenceEncode(b))
		if got, err := dir.Get(key); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("reference file %s: get = %d bytes, %v", what, len(got), err)
		}
	}
}

// compressiblePage is a distinct non-zero 4 KiB page that flate shrinks.
func compressiblePage(i int) []byte {
	p := make([]byte, 4096)
	for off := 0; off < len(p); off += 64 {
		binary.LittleEndian.PutUint64(p[off:], uint64(i)*0x9e3779b97f4a7c15+uint64(off))
	}
	return p
}

// TestCodecAllocationBound: once a store has encoded its first chunk,
// a Put or Get of a compressible page allocates about its own size, not
// a new flate writer (about 1.2 MB) or reader (about 40 KB) each time.
// Get's bound sits below one reader, so a Get that builds a fresh
// reader fails it.
func TestCodecAllocationBound(t *testing.T) {
	const pages, putBound, getBound = 100, 64 << 10, 16 << 10
	s := NewMemStore()
	warm := compressiblePage(-1)
	if err := s.Put(KeyOf(warm), warm); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(KeyOf(warm)); err != nil {
		t.Fatal(err)
	}
	var keys []Key
	for i := 0; i < pages; i++ {
		keys = append(keys, KeyOf(compressiblePage(i)))
	}
	var err error
	put := allocDuring(func() {
		for i := 0; i < pages && err == nil; i++ {
			err = s.Put(keys[i], compressiblePage(i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	get := allocDuring(func() {
		for i := 0; i < pages && err == nil; i++ {
			_, err = s.Get(keys[i])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("per call: Put allocated %d bytes, Get %d", put/pages, get/pages)
	if put/pages >= putBound {
		t.Fatalf("Put allocated %d bytes per call, want < %d", put/pages, putBound)
	}
	if get/pages >= getBound {
		t.Fatalf("Get allocated %d bytes per call, want < %d", get/pages, getBound)
	}
}

// TestConcurrentPutGetStat runs Puts, Gets and Stats from several
// goroutines against one store of each backend; under -race it checks
// the shared writer and the decoder pool are properly guarded.
func TestConcurrentPutGetStat(t *testing.T) {
	const workers, perWorker = 4, 24
	corpus := codecCorpus()
	for name, s := range stores(t) {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					b := compressiblePage(i % (perWorker / 2)) // half the Puts are duplicates
					if i%3 == 0 {
						b = corpus[[]string{"zero", "random", "text", "table"}[(w+i)%4]]
					}
					key := KeyOf(b)
					if err := s.Put(key, b); err != nil {
						errs <- err
						return
					}
					got, err := s.Get(key)
					if err == nil && !bytes.Equal(got, b) {
						err = errors.New("get returned different bytes")
					}
					if err == nil {
						var info BlobInfo
						info, err = s.Stat(key)
						if err == nil && info.Size != len(b) {
							err = errors.New("stat reported the wrong size")
						}
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s: %v", name, err)
		}
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Puts != workers*perWorker {
			t.Fatalf("%s: %d puts counted, want %d", name, st.Puts, workers*perWorker)
		}
	}
}

// BenchmarkCodecPutGet measures one Put of a new compressible page and
// one Get of it, through a MemStore.
func BenchmarkCodecPutGet(b *testing.B) {
	s := NewMemStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := compressiblePage(i)
		key := KeyOf(p)
		if err := s.Put(key, p); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirStorePutParallel measures Puts of new compressible pages
// from parallel goroutines into one DirStore, whose encodes take turns
// on the store's one writer.
func BenchmarkDirStorePutParallel(b *testing.B) {
	s, err := OpenDirStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := compressiblePage(int(next.Add(1)))
			if err := s.Put(KeyOf(p), p); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// FuzzDecodeBlob plants arbitrary bytes as the stored form of a chunk
// and reads it back. Get must return bytes that hash to the key or a
// *ChunkHashError, never panic, and allocate no more than the record
// can legitimately decode to (the flate expansion bound) plus slack.
func FuzzDecodeBlob(f *testing.F) {
	mem := NewMemStore()
	dir, err := OpenDirStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, keyHex string, stored []byte) {
		var key Key
		if k, err := ParseKey(keyHex); err == nil {
			key = k
		} else {
			key = KeyOf([]byte(keyHex))
		}
		// Checking a zero record hashes the zeros it claims, so its cost
		// is linear in the claim: a 64 MiB claim takes tens of ms per
		// store, so a fuzzer minimizing one runs a few execs a second.
		// Claims past 3 MiB fold into [2, 3) MiB, still past the
		// allocation limit below.
		if len(stored) == 5 && stored[0] == codecZero {
			if n := binary.LittleEndian.Uint32(stored[1:]); n >= 3<<20 {
				stored = binary.LittleEndian.AppendUint32([]byte{codecZero}, 2<<20+n%(1<<20))
			}
		}
		for _, s := range []Store{mem, dir} {
			plant(t, s, key, stored)
			var got []byte
			var err error
			grew := allocDuring(func() { got, err = s.Get(key) })
			switch {
			case err == nil && KeyOf(got) != key:
				t.Fatalf("%T: get returned bytes hashing to %s, want %s", s, KeyOf(got), key)
			case err != nil && !errors.As(err, new(*ChunkHashError)):
				t.Fatalf("%T: get = %v, want *ChunkHashError", s, err)
			}
			limit := uint64(flateMaxRatio*len(stored)+flateSlack) + 1<<20
			if err == nil {
				limit += 2 * uint64(len(got)) // a verified zero record
			}
			if grew > limit {
				t.Fatalf("%T: get of a %d-byte record allocated %d bytes, limit %d", s, len(stored), grew, limit)
			}
		}
	})
}
