package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// frame is one function on a sampled stack.
type frame struct {
	fn   string // fully qualified, e.g. repro/internal/vm.(*Space).Read
	file string
}

// sample is one CPU profile sample: its stack, innermost frame first,
// and the CPU time it stands for.
type sample struct {
	stack []frame
	ns    int64
}

// repoModule is the import path of the module under test.
const repoModule = "repro"

// pkgOf returns the package import path of a qualified function name:
// everything before the first dot after the last slash.
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a frame to the layer it is charged to. ok is false for
// frames outside the repository (the standard library, the runtime)
// and for the benchmark harness's own code: those are charged to the
// innermost repository frame below them.
func layerOf(f frame) (layer string, ok bool) {
	pkg := pkgOf(f.fn)
	switch {
	case pkg == "main" || pkg == repoModule+"/perfbench":
		// The benchmark's store and index wrappers are pass-throughs:
		// their cost is the wrapped layer's to carry.
		switch {
		case strings.Contains(f.fn, "(*tracedStore)."):
			return "castore", true
		case strings.Contains(f.fn, "(*tracedIndex)."):
			return "detmake", true
		}
		return "", false
	case pkg == repoModule:
		return "session", true
	case !strings.HasPrefix(pkg, repoModule+"/"):
		return "", false
	}
	switch rel := strings.TrimPrefix(pkg, repoModule+"/internal/"); rel {
	case "workload":
		return "workload", true
	case "serve":
		if strings.HasPrefix(f.fn, pkg+".StripeProgram.") {
			return "workload", true // the served program's closures
		}
		return "serve", true
	case "detmake":
		if strings.HasPrefix(f.fn, pkg+".DefaultActions.") {
			return "workload", true // action bodies
		}
		return "detmake", true
	case "vm":
		if base := path.Base(f.file); base == "image.go" || base == "chunk.go" {
			return "image", true
		}
		return "vm", true
	case "imgenc":
		return "image", true
	case "core", "kernel", "dsched", "fs", "castore":
		return rel, true
	}
	// The remaining repository packages (uproc, trace, baseline, ...)
	// sit beside the root package's session machinery.
	return "session", true
}

// foldLayers charges each sample to the innermost frame that belongs
// to a layer; a sample with none (GC workers, scheduler, signal
// handling) is Go runtime work and goes to gc. It returns CPU
// nanoseconds per layer; the values sum to the samples' total.
func foldLayers(samples []sample) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range samples {
		layer := "gc"
		for _, f := range s.stack {
			if l, ok := layerOf(f); ok {
				layer = l
				break
			}
		}
		out[layer] += s.ns
	}
	return out
}

// parseProfile decodes a gzip-compressed pprof CPU profile as written
// by runtime/pprof: just the fields the layer fold needs.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type line struct{ function uint64 }
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs     []string
		rawSamps []rawSample
		locLines = map[uint64][]line{}
		funcName = map[uint64]uint64{}
		funcFile = map[uint64]uint64{}
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			rawSamps = append(rawSamps, s)
		case 4: // location
			var id uint64
			var lines []line
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					var l line
					if err := pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							l.function = v
						}
						return nil
					}); err != nil {
						return err
					}
					lines = append(lines, l)
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = lines
		case 5: // function
			var id, name, file uint64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id], funcFile[id] = name, file
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]sample, 0, len(rawSamps))
	for _, rs := range rawSamps {
		// runtime/pprof writes [samples/count, cpu/nanoseconds].
		if len(rs.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		s := sample{ns: rs.values[len(rs.values)-1]}
		for _, loc := range rs.locs {
			// A location's lines run innermost (inlined callee) first.
			for _, l := range locLines[loc] {
				s.stack = append(s.stack, frame{fn: str(funcName[l.function]), file: str(funcFile[l.function])})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// appendPacked appends a repeated varint field that arrived either as
// one varint (v) or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// pbFields walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes
// (non-nil, possibly empty). Fixed-width fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data[:len(data):len(data)]); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// pbVarint decodes one varint, returning its length (0 on error).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
