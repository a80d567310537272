package castore

// The chunk codec: the per-chunk compression both backends apply before
// holding bytes. Checkpoint chunks are dominated by 4 KiB pages that are
// mostly zeros (lazily-mapped regions, sparsely dirtied pages), so the
// codec tries, in order:
//
//   - zero elision: an all-zero chunk stores as a 5-byte record;
//   - flate: kept only when it actually shrinks the chunk;
//   - raw: the identity fallback, so encoding never grows a chunk by
//     more than the 1-byte tag (plus a 4-byte length for the sized
//     forms).
//
// The codec is an internal representation detail: keys are computed over
// the uncompressed bytes and Get always returns them, so two backends
// with different codec outcomes still agree on every key.
//
// Each store owns one codec, and with it its compression state. Building
// a flate.Writer allocates and clears about 1.2 MB of tables, far more
// than compressing a 4 KiB page costs, so the codec builds one writer
// on the first compressed chunk and Resets it for every later one; the
// store serializes encodes under a lock, which also guards the writer.
// A Reset writer is equivalent to a fresh one, so the stored bytes are
// exactly those a new flate.NewWriter would produce. The writer is held
// directly rather than pooled: a sync.Pool of writers keeps one 1.2 MB
// writer per concurrent encoder alive across collections, which costs
// more heap than it saves. Decoders (about 40 KB each) are Reset through
// flate.Resetter from a pool on the codec, since Gets run concurrently.
// Nothing is package-level: two stores share no codec state.

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"sync"
)

// Codec tags, the first byte of every stored blob.
const (
	codecRaw   = 'R' // tag | raw bytes
	codecZero  = 'Z' // tag | u32 length (all-zero chunk)
	codecFlate = 'F' // tag | u32 raw length | flate stream
)

// flateMaxRatio bounds how far a flate stream can expand: a 258-byte
// match costs at least 2 bits, so each body byte yields at most 1032
// output bytes. flateSlack covers the stream's first bytes, which cannot
// reach that rate. decode rejects any length header past the bound
// before allocating for it.
const (
	flateMaxRatio = 1032
	flateSlack    = 1024
)

// codec is one store's reusable compression state.
type codec struct {
	// w and scratch are guarded by the owning store's encode lock.
	w       *flate.Writer // built on the first compressed chunk
	scratch bytes.Buffer  // staging for the encoded form

	readers sync.Pool  // *blobReader
	zeros   [4096]byte // read-only source for hashing zero records
}

// blobReader is a pooled flate decoder with the byte source it reads.
type blobReader struct {
	src bytes.Reader
	fr  io.ReadCloser
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// encode compresses b for storage. The caller holds the store's encode
// lock. The result is a fresh slice of exactly the encoded length.
func (c *codec) encode(b []byte) []byte {
	if allZero(b) {
		out := make([]byte, 5)
		out[0] = codecZero
		binary.LittleEndian.PutUint32(out[1:], uint32(len(b)))
		return out
	}
	buf := &c.scratch
	buf.Reset()
	buf.WriteByte(codecFlate)
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(b)))
	buf.Write(lenb[:])
	if c.w == nil {
		c.w, _ = flate.NewWriter(buf, flate.BestSpeed)
	} else {
		c.w.Reset(buf)
	}
	_, _ = c.w.Write(b)
	_ = c.w.Close()
	if buf.Len() < len(b)+1 {
		return append([]byte(nil), buf.Bytes()...)
	}
	out := make([]byte, 0, len(b)+1)
	out = append(out, codecRaw)
	return append(out, b...)
}

// decode reverses encode; it is safe for concurrent use. A structurally
// broken stored blob is reported as corruption at the given key: the
// hash error the caller would have produced had the bytes decoded to
// garbage. No length header is trusted with an allocation: a flate
// header past the stream's maximum expansion is corrupt on its face,
// and a zero record must hash to key before its bytes are made.
func (c *codec) decode(key Key, stored []byte) ([]byte, error) {
	corrupt := &ChunkHashError{Key: key}
	if len(stored) == 0 {
		return nil, corrupt
	}
	switch stored[0] {
	case codecRaw:
		return stored[1:], nil
	case codecZero:
		if len(stored) != 5 {
			return nil, corrupt
		}
		n := binary.LittleEndian.Uint32(stored[1:])
		if got := c.zeroKey(n); got != key {
			return nil, &ChunkHashError{Key: key, Got: got}
		}
		return make([]byte, n), nil
	case codecFlate:
		if len(stored) < 5 {
			return nil, corrupt
		}
		n := binary.LittleEndian.Uint32(stored[1:])
		body := stored[5:]
		if uint64(n) > flateMaxRatio*uint64(len(body))+flateSlack {
			return nil, corrupt
		}
		r, _ := c.readers.Get().(*blobReader)
		if r == nil {
			r = new(blobReader)
			r.fr = flate.NewReader(&r.src)
		}
		r.src.Reset(body)
		_ = r.fr.(flate.Resetter).Reset(&r.src, nil)
		out := make([]byte, n)
		_, err := io.ReadFull(r.fr, out)
		r.src.Reset(nil) // drop the reference to stored before pooling
		c.readers.Put(r)
		if err != nil {
			return nil, corrupt
		}
		return out, nil
	default:
		return nil, corrupt
	}
}

// get is decode plus the re-hash Get promises. A decoded zero record
// has already been checked against key, so only the other forms are
// hashed again.
func (c *codec) get(key Key, stored []byte) ([]byte, error) {
	b, err := c.decode(key, stored)
	if err != nil || stored[0] == codecZero {
		return b, err
	}
	return verifyGet(key, b)
}

// zeroKey is KeyOf(make([]byte, n)), streamed from c.zeros so a hostile
// length costs hashing time but no memory.
func (c *codec) zeroKey(n uint32) Key {
	h := sha256.New()
	for n > 0 {
		k := min(n, uint32(len(c.zeros)))
		h.Write(c.zeros[:k])
		n -= k
	}
	var k Key
	h.Sum(k[:0])
	return k
}
