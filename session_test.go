package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// --- helpers -----------------------------------------------------------------

// resultKey is everything a checkpoint/resume must reproduce bit-exactly.
type resultKey struct {
	Ret    uint64
	VT     int64
	Insns  int64
	Msgs   int64
	Pages  int64
	ErrStr string
}

func keyOf(res RunResult, err error) resultKey {
	k := resultKey{Ret: res.Ret, VT: res.VT, Insns: res.Insns,
		Msgs: res.Net.Msgs, Pages: res.Net.Pages}
	if err != nil {
		k.ErrStr = err.Error()
	} else if res.Err != nil {
		k.ErrStr = res.Err.Error()
	}
	return k
}

// mustSession builds a session or fails the test.
func mustSession(t testing.TB, opts ...SessionOption) *Session {
	t.Helper()
	s, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// imageDigest is the digest Step reports for an image resting in memory.
func imageDigest(t testing.TB, img *Image) ChunkKey {
	t.Helper()
	d, err := img.digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// roundTripStore ships an image through a content-addressed store —
// SaveImage, manifest bytes, LoadImage — as a fresh process would
// receive it, asserting the loaded image equals the saved one: the
// same metadata and the same forest, page for page.
func roundTripStore(t testing.TB, img *Image) *Image {
	t.Helper()
	store := NewMemStore()
	m, err := SaveImage(store, img, nil)
	if err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	m2, err := DecodeManifest(m.Bytes())
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	img2, err := LoadImage(store, m2)
	if err != nil {
		t.Fatalf("LoadImage: %v", err)
	}
	if imageDigest(t, img2) != imageDigest(t, img) || !img2.forest.Equal(img.forest) {
		t.Fatal("store round trip changed the image")
	}
	return img2
}

// stepAndSuspend drives s for k phases and suspends it into store,
// returning the new manifest. With from == nil s is bound to p fresh;
// otherwise it is admitted on the checkpoint from names in store, and
// the new manifest chains onto it. A slice that fails returns its error.
func stepAndSuspend(t testing.TB, s *Session, p Program, store BlobStore, from *Manifest, k int) (*Manifest, error) {
	t.Helper()
	var err error
	if from == nil {
		err = s.Bind(p)
	} else {
		err = s.BindSuspended(p, store, from)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(k); err != nil {
		return nil, err
	}
	m, err := s.Suspend(store)
	if err != nil {
		t.Fatal(err)
	}
	return m, nil
}

// checkpointAt runs p's first k phases in a fresh session and returns
// the image it rests at, read back from the store it was suspended to.
// A program that fails before barrier k returns that failure.
func checkpointAt(t testing.TB, opts []SessionOption, p Program, k int) (*Image, error) {
	t.Helper()
	store := NewMemStore()
	m, err := stepAndSuspend(t, mustSession(t, opts...), p, store, nil, k)
	if err != nil {
		return nil, err
	}
	img, err := LoadImage(store, m)
	if err != nil {
		t.Fatal(err)
	}
	return img, nil
}

// resumeImage continues p from img on s as a fresh process would: the
// image is saved into a new store, s is admitted on its manifest with
// BindSuspended, and one Step runs every remaining phase.
func resumeImage(t testing.TB, s *Session, img *Image, p Program) (RunResult, error) {
	t.Helper()
	store := NewMemStore()
	m, err := SaveImage(store, img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BindSuspended(p, store, m); err != nil {
		t.Fatal(err)
	}
	sr, err := s.Step(p.Phases)
	if err == nil && !sr.Done {
		t.Fatalf("resume rested at barrier %d of %d", sr.Phase, p.Phases)
	}
	return sr.Result, err
}

// checkpointEverywhere verifies the full equivalence contract for a
// phased program under a session configuration: for every barrier k,
// running to a checkpoint at k, shipping the image through bytes, and
// resuming in a fresh session yields a result bit-identical to the
// uninterrupted run (including any error, e.g. a conflict report).
func checkpointEverywhere(t *testing.T, opts []SessionOption, p Program) {
	t.Helper()
	res, err := mustSession(t, opts...).RunProgram(p)
	want := keyOf(res, err)

	for k := 1; k <= p.Phases; k++ {
		img, err := checkpointAt(t, opts, p, k)
		if err != nil {
			// A program that fails before barrier k cannot checkpoint
			// there; the uninterrupted run must have failed identically.
			if want.ErrStr == "" || err.Error() != want.ErrStr {
				t.Fatalf("barrier %d: checkpoint run failed with %v, uninterrupted with %q", k, err, want.ErrStr)
			}
			continue
		}
		res, rerr := resumeImage(t, mustSession(t, opts...), roundTripStore(t, img), p)
		if got := keyOf(res, rerr); got != want {
			t.Fatalf("resume from barrier %d diverged:\n got %+v\nwant %+v", k, got, want)
		}
	}

	// Checkpointing must be a pure observation: a run that captures an
	// image at every barrier (one Step per phase) changes nothing.
	obs := mustSession(t, opts...)
	if err := obs.Bind(p); err != nil {
		t.Fatal(err)
	}
	sr, err := stepAll(t, obs, 1)
	if got := keyOf(sr.Result, err); got != want {
		t.Fatalf("checkpointing run diverged:\n got %+v\nwant %+v", got, want)
	}
}

// --- workload 1: private-workspace fork/join over a shared array ------------

// arrayProgram stripes updates over a shared array with ParallelDo,
// folding per-thread results and the array into a checksum. With
// conflictAt >= 0, that phase deliberately double-writes one word so a
// deterministic ConflictError surfaces.
func arrayProgram(threads, phases, words int, conflictAt int, place func(i int) int) Program {
	var arr, acc Addr
	return Program{
		Phases: phases,
		Layout: func(rt *RT) {
			arr = rt.Alloc(uint64(8*words), 8)
			acc = rt.Alloc(8, 8)
		},
		Init: func(rt *RT) {
			for i := 0; i < words; i++ {
				rt.Env().WriteU64(arr+Addr(8*i), uint64(i)*2654435761)
			}
			rt.Env().WriteU64(acc, 1)
		},
		Phase: func(rt *RT, p int) error {
			body := func(t *Thread) uint64 {
				lo, hi := t.ID*words/threads, (t.ID+1)*words/threads
				var sum uint64
				for i := lo; i < hi; i++ {
					a := arr + Addr(8*i)
					v := t.Env().ReadU64(a)*6364136223846793005 + uint64(p) + 1
					t.Env().WriteU64(a, v)
					sum += v
				}
				if p == conflictAt {
					t.Env().WriteU64(acc, uint64(t.ID)) // every thread: conflict
				}
				return sum
			}
			var rets []uint64
			var err error
			if place != nil {
				rets, err = rt.ParallelDoOn(threads, place, body)
			} else {
				rets, err = rt.ParallelDo(threads, body)
			}
			if err != nil {
				return err
			}
			h := rt.Env().ReadU64(acc)
			for _, r := range rets {
				h = h*31 + r
			}
			rt.Env().WriteU64(acc, h)
			return nil
		},
		Result: func(rt *RT) uint64 {
			h := rt.Env().ReadU64(acc)
			for i := 0; i < words; i += 7 {
				h = h*1099511628211 + rt.Env().ReadU64(arr+Addr(8*i))
			}
			return h
		},
	}
}

func TestSessionCheckpointResumeArray(t *testing.T) {
	opts := []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 4, MergeWorkers: 1})}
	checkpointEverywhere(t, opts, arrayProgram(4, 4, 4096, -1, nil))
}

func TestSessionCheckpointResumeConflictReport(t *testing.T) {
	// The conflict fires in phase 2; resuming from barriers 1 and 2 must
	// reproduce the identical conflict report, and later barriers are
	// unreachable (verified against the uninterrupted failure).
	opts := []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 2, MergeWorkers: 1})}
	p := arrayProgram(3, 4, 512, 2, nil)
	res, err := mustSession(t, opts...).RunProgram(p)
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("uninterrupted run: want conflict, got %v (res %+v)", err, res)
	}
	checkpointEverywhere(t, opts, p)
}

func TestSessionCheckpointResumeMultiNodeTree(t *testing.T) {
	for _, tree := range []bool{false, true} {
		t.Run(fmt.Sprintf("tree=%v", tree), func(t *testing.T) {
			opts := []SessionOption{
				WithMachine(MachineConfig{Nodes: 3, CPUsPerNode: 2, MergeWorkers: 1}),
				WithTreeJoin(tree),
			}
			place := func(i int) int { return i % 3 }
			checkpointEverywhere(t, opts, arrayProgram(6, 3, 2048, -1, place))
		})
	}
}

// --- workload 2: dsched (legacy mutex code) across phases --------------------

// dschedProgram runs a mutex-protected accumulator under the
// deterministic scheduler in every phase, carrying one Sched across all
// phases — and, through Snapshot/Restore, across the checkpoint.
func dschedProgram(t *testing.T, sess func() *Session, threads, phases int) Program {
	var cell Addr
	var sched *Sched
	cfg := SchedConfig{Quantum: 3000}
	mkSched := func(rt *RT) {
		var err error
		sched, err = NewSchedWith(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	var mu Mutex
	body := func(p int) func(st *SchedThread) {
		return func(st *SchedThread) {
			for i := 0; i < 4; i++ {
				st.Lock(mu)
				v := st.Env().ReadU64(cell)
				st.Env().Tick(int64(50 * (st.ID + 1)))
				st.Env().WriteU64(cell, v*31+uint64(st.ID+p)+1)
				st.Unlock(mu)
				st.Yield()
			}
		}
	}
	return Program{
		Phases: phases,
		Layout: func(rt *RT) { cell = rt.Alloc(8, 8) },
		Init: func(rt *RT) {
			rt.Env().WriteU64(cell, 7)
			mkSched(rt)
			mu = sched.NewMutex()
		},
		Phase: func(rt *RT, p int) error {
			return sched.Run(threads, func(st *SchedThread) { body(p)(st) })
		},
		Result: func(rt *RT) uint64 {
			st := sched.Stats()
			return rt.Env().ReadU64(cell)*1000003 + uint64(st.Rounds)*31 + uint64(st.ThreadQuanta)
		},
		Snapshot: func(rt *RT) map[string][]byte {
			st, err := sched.ExportState()
			if err != nil {
				t.Errorf("sched export: %v", err)
				return nil
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Errorf("sched marshal: %v", err)
				return nil
			}
			return map[string][]byte{"sched": b}
		},
		Restore: func(rt *RT, sections map[string][]byte) error {
			var st SchedState
			if err := json.Unmarshal(sections["sched"], &st); err != nil {
				return err
			}
			var err error
			sched, err = AttachSched(rt, cfg, st)
			if err != nil {
				return err
			}
			mu = Mutex(0)
			return nil
		},
	}
}

func TestSessionCheckpointResumeDsched(t *testing.T) {
	opts := []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 4, MergeWorkers: 1})}
	sess := func() *Session { return mustSession(t, opts...) }
	p := dschedProgram(t, sess, 3, 4)
	res, err := sess().RunProgram(p)
	if err != nil || res.Err != nil {
		t.Fatalf("dsched run: %v / %v", err, res.Err)
	}
	want := keyOf(res, err)
	for k := 1; k <= p.Phases; k++ {
		img, err := checkpointAt(t, opts, p, k)
		if err != nil {
			t.Fatalf("checkpoint at %d: %v", k, err)
		}
		res, rerr := resumeImage(t, sess(), roundTripStore(t, img), p)
		if got := keyOf(res, rerr); got != want {
			t.Fatalf("dsched resume from barrier %d diverged:\n got %+v\nwant %+v", k, got, want)
		}
	}
}

// --- workload 3: recorded-trace run ------------------------------------------

// deviceProgram folds clock and entropy readings into the state each
// phase, so the device cursors matter to the result.
func deviceProgram(threads, phases int) Program {
	var cell Addr
	base := arrayProgram(threads, phases, 256, -1, nil)
	inner := base.Phase
	return Program{
		Phases: phases,
		Layout: func(rt *RT) {
			base.Layout(rt)
			cell = rt.Alloc(8, 8)
		},
		Init: base.Init,
		Phase: func(rt *RT, p int) error {
			if err := inner(rt, p); err != nil {
				return err
			}
			h := rt.Env().ReadU64(cell)
			h = h*31 + uint64(rt.Env().ClockNow())
			h = h*31 + rt.Env().RandUint64()
			rt.Env().WriteU64(cell, h)
			return nil
		},
		Result: func(rt *RT) uint64 {
			return base.Result(rt)*131 + rt.Env().ReadU64(cell)
		},
	}
}

func TestSessionCheckpointResumeRecordedTrace(t *testing.T) {
	opts := []SessionOption{WithRecord(), WithMachine(MachineConfig{MergeWorkers: 1})}
	mk := func() *Session { return mustSession(t, opts...) }
	p := deviceProgram(3, 4)

	full := mk()
	res, err := full.RunProgram(p)
	if err != nil || res.Err != nil {
		t.Fatalf("recorded run: %v / %v", err, res.Err)
	}
	want := keyOf(res, err)
	wantLog, err := full.TraceLog().Marshal()
	if err != nil {
		t.Fatal(err)
	}

	for k := 1; k <= p.Phases; k++ {
		img, err := checkpointAt(t, opts, p, k)
		if err != nil {
			t.Fatalf("checkpoint at %d: %v", k, err)
		}
		if img.TracePrefix == nil {
			t.Fatalf("record-mode image at %d carries no trace prefix", k)
		}
		resumed := mk()
		res, rerr := resumeImage(t, resumed, roundTripStore(t, img), p)
		if got := keyOf(res, rerr); got != want {
			t.Fatalf("recorded resume from %d diverged:\n got %+v\nwant %+v", k, got, want)
		}
		// The spliced log must equal the uninterrupted recording bit for
		// bit: prefix re-recorded by the fast-forward, continuation live.
		gotLog, err := resumed.TraceLog().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotLog, wantLog) {
			t.Fatalf("spliced trace log at %d differs:\n got %s\nwant %s", k, gotLog, wantLog)
		}
	}

	// And a replayed session checkpoints/resumes mid-log too.
	restored, err := UnmarshalTrace(wantLog)
	if err != nil {
		t.Fatal(err)
	}
	replayOpts := []SessionOption{WithReplay(restored), WithMachine(MachineConfig{MergeWorkers: 1})}
	img, err := checkpointAt(t, replayOpts, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, rerr := resumeImage(t, mustSession(t, replayOpts...), roundTripStore(t, img), p)
	if got := keyOf(res, rerr); got != want {
		t.Fatalf("replayed resume diverged:\n got %+v\nwant %+v", got, want)
	}
}

// Console input splices across a checkpoint too: a recorded run that
// consumes multi-kilobyte console input before and after the barrier
// resumes with the same bytes, the same chunking, and a spliced log
// bit-identical to the uninterrupted recording.
func TestSessionCheckpointResumeConsoleSplice(t *testing.T) {
	input := func() string {
		b := make([]byte, 11000) // > the console's 4096-byte read granularity
		for i := range b {
			b[i] = byte('a' + i%23)
		}
		return string(b)
	}
	opts := func() []SessionOption {
		return []SessionOption{WithRecord(),
			WithConsole(strings.NewReader(input()), nil),
			WithMachine(MachineConfig{MergeWorkers: 1})}
	}
	mk := func() *Session { return mustSession(t, opts()...) }
	var cell Addr
	p := Program{
		Phases: 3,
		Layout: func(rt *RT) { cell = rt.Alloc(8, 8) },
		Init:   func(rt *RT) { rt.Env().WriteU64(cell, 3) },
		Phase: func(rt *RT, phase int) error {
			buf := make([]byte, 2500+1700*phase) // crosses the 4096 granularity
			h := rt.Env().ReadU64(cell)
			for read := 0; read < len(buf); {
				n := rt.Env().ConsoleRead(buf[read:])
				if n == 0 {
					break
				}
				for _, c := range buf[read : read+n] {
					h = h*31 + uint64(c)
				}
				read += n
			}
			rt.Env().WriteU64(cell, h)
			return nil
		},
		Result: func(rt *RT) uint64 { return rt.Env().ReadU64(cell) },
	}

	full := mk()
	res, err := full.RunProgram(p)
	if err != nil || res.Err != nil {
		t.Fatalf("console run: %v / %v", err, res.Err)
	}
	want := keyOf(res, err)
	wantLog, err := full.TraceLog().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.TraceLog().Input) == 0 {
		t.Fatal("no console input recorded")
	}

	for k := 1; k <= p.Phases; k++ {
		img, err := checkpointAt(t, opts(), p, k)
		if err != nil {
			t.Fatalf("checkpoint at %d: %v", k, err)
		}
		resumed := mk()
		res, rerr := resumeImage(t, resumed, roundTripStore(t, img), p)
		if got := keyOf(res, rerr); got != want {
			t.Fatalf("console resume from %d diverged:\n got %+v\nwant %+v", k, got, want)
		}
		gotLog, err := resumed.TraceLog().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotLog, wantLog) {
			t.Fatalf("spliced console log at %d differs from the uninterrupted recording", k)
		}
	}
}

// --- property test: random workloads × random barriers ----------------------

func TestSessionCheckpointResumeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for it := 0; it < iters; it++ {
		threads := 2 + rng.Intn(4)
		phases := 2 + rng.Intn(4)
		words := 256 << rng.Intn(3)
		nodes := []int{1, 1, 2, 3}[rng.Intn(4)]
		tree := nodes > 1 && rng.Intn(2) == 0
		conflictAt := -1
		if rng.Intn(3) == 0 {
			conflictAt = rng.Intn(phases)
		}
		var place func(i int) int
		if nodes > 1 {
			place = func(i int) int { return i % nodes }
		}
		opts := []SessionOption{
			WithMachine(MachineConfig{Nodes: nodes, CPUsPerNode: 1 + rng.Intn(3), MergeWorkers: 1}),
			WithTreeJoin(tree),
		}
		p := arrayProgram(threads, phases, words, conflictAt, place)

		res, err := mustSession(t, opts...).RunProgram(p)
		want := keyOf(res, err)
		k := 1 + rng.Intn(phases) // random barrier
		img, err := checkpointAt(t, opts, p, k)
		if err != nil {
			if want.ErrStr == "" || err.Error() != want.ErrStr {
				t.Fatalf("iter %d: checkpoint failed %v, uninterrupted %q", it, err, want.ErrStr)
			}
			continue
		}
		res, rerr := resumeImage(t, mustSession(t, opts...), roundTripStore(t, img), p)
		if got := keyOf(res, rerr); got != want {
			t.Fatalf("iter %d (threads=%d phases=%d nodes=%d tree=%v conflict=%d ck=%d) diverged:\n got %+v\nwant %+v",
				it, threads, phases, nodes, tree, conflictAt, k, got, want)
		}
	}
}

// --- image format and API-surface tests --------------------------------------

func TestSessionImageRoundTripAndRejects(t *testing.T) {
	img, err := checkpointAt(t, []SessionOption{WithMachine(MachineConfig{MergeWorkers: 1})},
		arrayProgram(2, 2, 128, -1, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.metaBytes()
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != ImageVersion {
		t.Fatalf("session image version byte = %d, want %d", data[4], ImageVersion)
	}
	var ie *ImageError
	for _, cut := range []int{0, 4, len(data) / 2, len(data) - 1} {
		if _, err := decodeMeta(data[:cut]); !errors.As(err, &ie) {
			t.Fatalf("truncated at %d: got %v", cut, err)
		}
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/3] ^= 0x20
	if _, err := decodeMeta(bad); !errors.As(err, &ie) {
		t.Fatalf("corrupt: got %v", err)
	}
	// The metadata leaf round-trips exactly.
	img2, err := decodeMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	img2.forest = img.forest
	if imageDigest(t, img2) != imageDigest(t, img) {
		t.Fatal("metadata leaf did not round-trip")
	}
	// Resume under a mismatched machine fails with the typed kernel error.
	var mm *ImageMismatchError
	_, err = resumeImage(t, mustSession(t, WithMachine(MachineConfig{Nodes: 2, MergeWorkers: 1})),
		img2, arrayProgram(2, 2, 128, -1, nil))
	if !errors.As(err, &mm) {
		t.Fatalf("mismatched resume: got %v, want *ImageMismatchError", err)
	}
}

func TestSessionConfigValidation(t *testing.T) {
	var ce *ConfigError
	if _, err := NewSession(WithMachine(MachineConfig{MergeWorkers: -1})); !errors.As(err, &ce) || ce.Field != "Machine.MergeWorkers" {
		t.Fatalf("negative workers: %v", err)
	}
	if _, err := NewSession(WithMachine(MachineConfig{Nodes: -2})); !errors.As(err, &ce) || ce.Field != "Machine.Nodes" {
		t.Fatalf("negative nodes: %v", err)
	}
	if _, err := NewSession(WithSharedSize(1 << 40)); !errors.As(err, &ce) || ce.Field != "SharedSize" {
		t.Fatalf("oversized region: %v", err)
	}
	var se *SchedConfigError
	if _, err := NewSession(WithSched(SchedConfig{Quantum: -5})); !errors.As(err, &se) || se.Field != "Quantum" {
		t.Fatalf("negative quantum: %v", err)
	}
	if _, err := NewSession(WithRecord(), WithReplay(&TraceLog{})); !errors.As(err, &ce) {
		t.Fatalf("record+replay: %v", err)
	}
}

// The legacy wrappers now validate instead of silently defaulting.
func TestLegacyWrapperValidation(t *testing.T) {
	res := Run(Options{}, func(rt *RT) uint64 {
		// Negative quantum: typed panic from the legacy wrapper.
		func() {
			defer func() {
				r := recover()
				err, ok := r.(error)
				var se *SchedConfigError
				if !ok || !errors.As(err, &se) {
					panic(fmt.Sprintf("NewSched(-1) panicked with %v, want *SchedConfigError", r))
				}
			}()
			NewSched(rt, -1)
		}()
		// Zero still selects the documented default.
		if s := NewSched(rt, 0); s == nil {
			panic("NewSched(0) returned nil")
		}
		// The full-config path surfaces the same error without panicking.
		if _, err := NewSchedWith(rt, SchedConfig{CollectWorkers: -3}); err == nil {
			panic("NewSchedWith accepted negative workers")
		}
		// NewRTWith refuses machine config (the machine is already built)
		// instead of silently dropping it.
		var ce *ConfigError
		if _, err := NewRTWith(rt.Env(), Options{Kernel: MachineConfig{Nodes: 4}}); !errors.As(err, &ce) || ce.Field != "Kernel" {
			panic(fmt.Sprintf("NewRTWith(Kernel) = %v, want *ConfigError{Kernel}", err))
		}
		return 1
	})
	if res.Err != nil || res.Ret != 1 {
		t.Fatalf("legacy validation run: %+v", res)
	}

	res = Run(Options{}, func(rt *RT) uint64 { return 0 })
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if _, err := NewSession(); err != nil {
		t.Fatalf("zero-config session invalid: %v", err)
	}
}

// runMain runs main as a zero-phase program: the session form of the
// package-level Run.
func runMain(t *testing.T, s *Session, main func(rt *RT) uint64) RunResult {
	t.Helper()
	res, err := s.RunProgram(Program{Result: main})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A session run honors the composed configuration the free functions
// used to take separately: record/replay through the session reproduces
// runs.
func TestSessionRunRecordReplay(t *testing.T) {
	prog := func(rt *RT) uint64 {
		h := uint64(7)
		for i := 0; i < 5; i++ {
			h = h*31 + rt.Env().RandUint64() + uint64(rt.Env().ClockNow())
		}
		return h
	}
	rec := mustSession(t, WithRecord())
	res1 := runMain(t, rec, prog)
	if res1.Err != nil {
		t.Fatal(res1.Err)
	}
	if got := len(rec.TraceLog().Rand); got != 5 {
		t.Fatalf("recorded %d rand readings, want 5", got)
	}
	rep := mustSession(t, WithReplay(rec.TraceLog()))
	res2 := runMain(t, rep, prog)
	if res2.Ret != res1.Ret || res2.VT != res1.VT {
		t.Fatalf("replayed session diverged: %+v vs %+v", res2, res1)
	}
}

func TestSessionConsole(t *testing.T) {
	var out strings.Builder
	s := mustSession(t, WithConsole(strings.NewReader("ping"), &out))
	res := runMain(t, s, func(rt *RT) uint64 {
		buf := make([]byte, 16)
		n := rt.Env().ConsoleRead(buf)
		rt.Env().ConsoleWrite([]byte("got:" + string(buf[:n])))
		return uint64(n)
	})
	if res.Err != nil || res.Ret != 4 || out.String() != "got:ping" {
		t.Fatalf("console session: %+v out=%q", res, out.String())
	}
}
