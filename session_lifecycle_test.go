package repro

// Lifecycle tests for the stepped Session API: the explicit
// Idle/Running/Quiescent/Suspended/Closed state machine, typed
// StateErrors on misuse, and the bit-identity of stepped, suspended and
// retried executions against the uninterrupted run — the property the
// serving fabric's eviction and failover paths lean on.

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
)

// stepOpts is the machine shape every stepped test uses; resumes must
// match the capture shape.
func stepOpts() []SessionOption {
	return []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 4, MergeWorkers: 1})}
}

// stepAll steps a bound session budget phases at a time until it
// finishes or a slice fails, returning the final (or failed) slice.
func stepAll(t testing.TB, s *Session, budget int) (StepResult, error) {
	t.Helper()
	for i := 0; i <= 100; i++ {
		sr, err := s.Step(budget)
		if err != nil || sr.Done {
			return sr, err
		}
	}
	t.Fatal("program never finished")
	return StepResult{}, nil
}

// stepToEnd is stepAll for a program that must not fail.
func stepToEnd(t *testing.T, s *Session, budget int) StepResult {
	t.Helper()
	sr, err := stepAll(t, s, budget)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

func TestSessionStateMachine(t *testing.T) {
	p := arrayProgram(3, 4, 512, -1, nil)
	s := mustSession(t, stepOpts()...)
	if got := s.State(); got != StateIdle {
		t.Fatalf("fresh state = %v, want Idle", got)
	}
	if err := s.Bind(p); err != nil {
		t.Fatal(err)
	}
	if got, ph := s.State(), s.Phase(); got != StateQuiescent || ph != 0 {
		t.Fatalf("bound state = %v at phase %d, want Quiescent at 0", got, ph)
	}
	sr, err := s.Step(2)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Done || sr.Phase != 2 || sr.Pages == 0 || sr.Digest.IsZero() {
		t.Fatalf("after Step(2): %+v", sr)
	}
	if got := s.State(); got != StateQuiescent {
		t.Fatalf("state after partial step = %v, want Quiescent", got)
	}

	store := NewMemStore()
	m, err := s.Suspend(store)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.State(); got != StateSuspended {
		t.Fatalf("state after Suspend = %v, want Suspended", got)
	}
	if lm := s.LastManifest(); lm == nil || lm.Key() != m.Key() {
		t.Fatal("LastManifest does not return the suspend manifest")
	}

	// Step transparently reloads from the store and finishes.
	final := stepToEnd(t, s, 1)
	if final.Phase != 4 || !final.Done {
		t.Fatalf("final step: %+v", final)
	}
	if got := s.State(); got != StateQuiescent {
		t.Fatalf("state after final step = %v, want Quiescent", got)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.State(); got != StateClosed {
		t.Fatalf("state after Close = %v, want Closed", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want idempotent nil", err)
	}
}

func TestSessionStateErrors(t *testing.T) {
	p := arrayProgram(2, 3, 256, -1, nil)
	asState := func(t *testing.T, err error, op string, st SessionState) {
		t.Helper()
		var se *StateError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error %v (%T), want *StateError", op, err, err)
		}
		if se.Op != op || se.State != st {
			t.Fatalf("%s: got op %q in state %v, want state %v", op, se.Op, se.State, st)
		}
	}

	t.Run("step unbound", func(t *testing.T) {
		s := mustSession(t, stepOpts()...)
		_, err := s.Step(1)
		asState(t, err, "Step", StateIdle)
	})
	t.Run("suspend idle", func(t *testing.T) {
		s := mustSession(t, stepOpts()...)
		_, err := s.Suspend(NewMemStore())
		asState(t, err, "Suspend", StateIdle)
	})
	t.Run("double bind", func(t *testing.T) {
		s := mustSession(t, stepOpts()...)
		if err := s.Bind(p); err != nil {
			t.Fatal(err)
		}
		asState(t, s.Bind(p), "Bind", StateQuiescent)
	})
	t.Run("one-shot on bound session", func(t *testing.T) {
		s := mustSession(t, stepOpts()...)
		if err := s.Bind(p); err != nil {
			t.Fatal(err)
		}
		_, err := s.RunProgram(p)
		asState(t, err, "RunProgram", StateQuiescent)
		if _, err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Suspend(NewMemStore()); err != nil {
			t.Fatal(err)
		}
		_, err = s.RunProgram(p)
		asState(t, err, "RunProgram", StateSuspended)
	})
	t.Run("closed", func(t *testing.T) {
		s := mustSession(t, stepOpts()...)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		asState(t, s.Bind(p), "Bind", StateClosed)
		_, err := s.Step(1)
		asState(t, err, "Step", StateClosed)
		_, err = s.RunProgram(p)
		asState(t, err, "RunProgram", StateClosed)
		_, err = s.Suspend(NewMemStore())
		asState(t, err, "Suspend", StateClosed)
	})
	t.Run("mid-run", func(t *testing.T) {
		// A phase that parks lets the test observe the Running state from
		// outside: Suspend and a second run must fail immediately with
		// *StateError instead of queueing behind the in-flight run.
		entered := make(chan struct{})
		release := make(chan struct{})
		s := mustSession(t, stepOpts()...)
		blocked := Program{
			Phases: 1,
			Phase: func(rt *RT, ph int) error {
				close(entered)
				<-release
				return nil
			},
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.RunProgram(blocked); err != nil {
				t.Errorf("blocked run: %v", err)
			}
		}()
		<-entered
		if got := s.State(); got != StateRunning {
			t.Errorf("state mid-run = %v, want Running", got)
		}
		_, err := s.Suspend(NewMemStore())
		asState(t, err, "Suspend", StateRunning)
		_, err = s.RunProgram(blocked)
		asState(t, err, "RunProgram", StateRunning)
		asState(t, s.Bind(blocked), "Bind", StateRunning)
		close(release)
		wg.Wait()
	})
}

// TestSteppedBitIdentical checks the core serving property: a program
// driven in timeslices — any budget, with eviction to a store between
// every slice — finishes with results bit-identical to the
// uninterrupted run, and rests at bit-identical images along the way.
func TestSteppedBitIdentical(t *testing.T) {
	p := arrayProgram(4, 6, 2048, -1, nil)
	want := keyOf(mustSession(t, stepOpts()...).RunProgram(p))

	// Results are bit-identical for every slicing; resting images at a
	// given barrier are only byte-identical between runs with the same
	// slicing (a restore-then-run machine and a run-through machine rest
	// in equivalent but not byte-equal states).
	digests := map[int]ChunkKey{} // barrier -> resting image digest, budget-1 schedule
	for _, budget := range []int{1, 2, 3, 4, 7} {
		s := mustSession(t, stepOpts()...)
		if err := s.Bind(p); err != nil {
			t.Fatal(err)
		}
		for {
			sr, err := s.Step(budget)
			if err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			if budget == 1 {
				digests[sr.Phase] = sr.Digest
			}
			if sr.Done {
				if got := keyOf(sr.Result, nil); got != want {
					t.Fatalf("budget %d: stepped result %+v, want %+v", budget, got, want)
				}
				break
			}
		}
	}

	// The same schedule re-run from scratch rests at byte-identical
	// images: execution from equal states is deterministic.
	{
		s := mustSession(t, stepOpts()...)
		if err := s.Bind(p); err != nil {
			t.Fatal(err)
		}
		for {
			sr, err := s.Step(1)
			if err != nil {
				t.Fatal(err)
			}
			if digests[sr.Phase] != sr.Digest {
				t.Fatalf("re-run: digest at barrier %d differs from first budget-1 run", sr.Phase)
			}
			if sr.Done {
				break
			}
		}
	}

	// Evict to a store after every slice; the chain resumes transparently
	// and the per-barrier digests match the in-memory schedules above.
	store := NewMemStore()
	s := mustSession(t, stepOpts()...)
	if err := s.Bind(p); err != nil {
		t.Fatal(err)
	}
	for {
		sr, err := s.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		if digests[sr.Phase] != sr.Digest {
			t.Fatalf("evicted run: digest at barrier %d differs from resident runs", sr.Phase)
		}
		if sr.Done {
			if got := keyOf(sr.Result, nil); got != want {
				t.Fatalf("evicted run result %+v, want %+v", got, want)
			}
			break
		}
		if _, err := s.Suspend(store); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBindSuspendedHandoff moves a half-run session between Session
// values through the store — the serving fabric's admission path — and
// checks the handed-off half matches the uninterrupted run.
func TestBindSuspendedHandoff(t *testing.T) {
	p := arrayProgram(3, 5, 1024, -1, nil)
	want := keyOf(mustSession(t, stepOpts()...).RunProgram(p))
	store := NewMemStore()

	for cut := 1; cut < 5; cut++ {
		first := mustSession(t, stepOpts()...)
		if err := first.Bind(p); err != nil {
			t.Fatal(err)
		}
		if sr, err := first.Step(cut); err != nil || sr.Phase != cut {
			t.Fatalf("cut %d: step: %+v, %v", cut, sr, err)
		}
		m, err := first.Suspend(store)
		if err != nil {
			t.Fatal(err)
		}
		if err := first.Close(); err != nil {
			t.Fatal(err)
		}

		second := mustSession(t, stepOpts()...)
		if err := second.BindSuspended(p, store, m); err != nil {
			t.Fatal(err)
		}
		if got, ph := second.State(), second.Phase(); got != StateSuspended || ph != -1 {
			t.Fatalf("cut %d: admitted state %v phase %d, want Suspended/-1", cut, got, ph)
		}
		final := stepToEnd(t, second, 2)
		if got := keyOf(final.Result, nil); got != want {
			t.Fatalf("cut %d: handed-off result %+v, want %+v", cut, got, want)
		}
		// A second Suspend chains onto the admitted manifest.
		m2, err := second.Suspend(store)
		if err != nil {
			t.Fatal(err)
		}
		if parent, ok := m2.Parent(); !ok || parent != m.Key() {
			t.Fatalf("cut %d: final manifest does not chain onto the admitted one", cut)
		}
	}
}

// TestStepRetryAfterCrash re-runs a slice whose phase panicked mid-way
// — the killed-worker path; the kernel converts the panic into a trap
// status Step surfaces as an error — and checks the retry is
// bit-identical to an undisturbed first attempt.
func TestStepRetryAfterCrash(t *testing.T) {
	crash := true
	base := arrayProgram(3, 4, 1024, -1, nil)
	inner := base.Phase
	base.Phase = func(rt *RT, ph int) error {
		if ph == 2 && crash {
			crash = false
			panic("worker killed")
		}
		return inner(rt, ph)
	}

	ref := mustSession(t, stepOpts()...)
	refProg := arrayProgram(3, 4, 1024, -1, nil)
	want := keyOf(ref.RunProgram(refProg))

	s := mustSession(t, stepOpts()...)
	if err := s.Bind(base); err != nil {
		t.Fatal(err)
	}
	if sr, err := s.Step(2); err != nil || sr.Phase != 2 {
		t.Fatalf("pre-crash step: %+v, %v", sr, err)
	}
	preState, prePhase := s.State(), s.Phase()
	if _, err := s.Step(1); err == nil {
		t.Fatal("crashing slice did not surface an error")
	}
	if got, ph := s.State(), s.Phase(); got != preState || ph != prePhase {
		t.Fatalf("state after crash = %v at %d, want %v at %d (pre-slice rest intact)", got, ph, preState, prePhase)
	}
	final := stepToEnd(t, s, 1)
	if got := keyOf(final.Result, nil); got != want {
		t.Fatalf("retried run result %+v, want %+v", got, want)
	}
}

// TestStepResultRedelivery steps a finished session again: delivery is
// idempotent because re-deriving the answer from the resting image is
// deterministic.
func TestStepResultRedelivery(t *testing.T) {
	p := arrayProgram(2, 3, 512, -1, nil)
	s := mustSession(t, stepOpts()...)
	if err := s.Bind(p); err != nil {
		t.Fatal(err)
	}
	first := stepToEnd(t, s, 2)
	again, err := s.Step(1)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Done || again.Result != first.Result || again.Digest != first.Digest {
		t.Fatalf("redelivery differs: first %+v, again %+v", first, again)
	}
}

// TestSlicingInvariance is the equivalence contract of the one Session
// API: for a shared-memory stripe program, a process tree and a recorded
// device-reading program, over both store backends,
//   - RunProgram's result equals Bind + Step(b), suspending into the
//     store after every slice, for every budget b in 1..Phases;
//   - handing the session to a fresh Session at every barrier (Suspend,
//     BindSuspended, Step) rests at the same per-barrier digests as one
//     resident session stepping a phase at a time, and finishes with the
//     same result, the same console output and — in Record mode — a
//     trace log equal to the uninterrupted recording.
func TestSlicingInvariance(t *testing.T) {
	reg := uprocTestRegistry()
	cases := []struct {
		name string
		opts func(out io.Writer) []SessionOption
		prog func() Program
	}{
		{"stripe",
			func(out io.Writer) []SessionOption {
				return []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 4, MergeWorkers: 1})}
			},
			func() Program { return arrayProgram(3, 4, 1024, -1, nil) }},
		{"uproc",
			func(out io.Writer) []SessionOption {
				return []SessionOption{WithMachine(MachineConfig{CPUsPerNode: 4}), WithConsole(nil, out)}
			},
			func() Program { return uprocTestProgram(reg) }},
		{"recorded",
			func(out io.Writer) []SessionOption {
				return []SessionOption{WithRecord(), WithMachine(MachineConfig{MergeWorkers: 1})}
			},
			func() Program { return deviceProgram(3, 4) }},
	}
	dir, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores := []struct {
		name  string
		store BlobStore
	}{{"mem", NewMemStore()}, {"dir", dir}}

	for _, c := range cases {
		var fullOut bytes.Buffer
		full := mustSession(t, c.opts(&fullOut)...)
		res, err := full.RunProgram(c.prog())
		if err != nil || res.Err != nil {
			t.Fatalf("%s: uninterrupted run: %v / %v", c.name, err, res.Err)
		}
		want := keyOf(res, err)
		wantLog := marshalTrace(t, full.TraceLog())
		phases := c.prog().Phases

		// Resident, one phase per Step: the reference digests.
		digests := map[int]ChunkKey{}
		resident := mustSession(t, c.opts(io.Discard)...)
		if err := resident.Bind(c.prog()); err != nil {
			t.Fatal(err)
		}
		for {
			sr, err := resident.Step(1)
			if err != nil {
				t.Fatalf("%s: resident step: %v", c.name, err)
			}
			digests[sr.Phase] = sr.Digest
			if sr.Done {
				break
			}
		}

		for _, st := range stores {
			for b := 1; b <= phases; b++ {
				s := mustSession(t, c.opts(io.Discard)...)
				if err := s.Bind(c.prog()); err != nil {
					t.Fatal(err)
				}
				for {
					sr, err := s.Step(b)
					if err != nil {
						t.Fatalf("%s/%s budget %d: %v", c.name, st.name, b, err)
					}
					if sr.Done {
						if got := keyOf(sr.Result, nil); got != want {
							t.Fatalf("%s/%s budget %d: stepped %+v, want %+v", c.name, st.name, b, got, want)
						}
						break
					}
					if _, err := s.Suspend(st.store); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Hand off to a fresh Session at every barrier.
			var out bytes.Buffer
			s := mustSession(t, c.opts(&out)...)
			if err := s.Bind(c.prog()); err != nil {
				t.Fatal(err)
			}
			for {
				sr, err := s.Step(1)
				if err != nil {
					t.Fatalf("%s/%s handoff: %v", c.name, st.name, err)
				}
				if sr.Digest != digests[sr.Phase] {
					t.Fatalf("%s/%s handoff: digest at barrier %d differs from the resident run", c.name, st.name, sr.Phase)
				}
				if sr.Done {
					if got := keyOf(sr.Result, nil); got != want {
						t.Fatalf("%s/%s handoff: result %+v, want %+v", c.name, st.name, got, want)
					}
					break
				}
				m, err := s.Suspend(st.store)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = mustSession(t, c.opts(&out)...)
				if err := s.BindSuspended(c.prog(), st.store, m); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(out.Bytes(), fullOut.Bytes()) {
				t.Fatalf("%s/%s handoff: console output %q, uninterrupted %q", c.name, st.name, out.Bytes(), fullOut.Bytes())
			}
			if got := marshalTrace(t, s.TraceLog()); !bytes.Equal(got, wantLog) {
				t.Fatalf("%s/%s handoff: trace log differs from the uninterrupted recording", c.name, st.name)
			}
		}
	}
}

// marshalTrace serializes a recorded log (nil when not recording).
func marshalTrace(t *testing.T, l *TraceLog) []byte {
	t.Helper()
	if l == nil {
		return nil
	}
	b, err := l.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
