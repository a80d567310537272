package repro

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/dsched"
	"repro/internal/imgenc"
	"repro/internal/kernel"
	"repro/internal/trace"
	"repro/internal/vm"
)

// A Session is the library's coherent entry point: one builder that
// composes everything the historical free functions configured
// separately — the machine (kernel.Config), the runtime (shared-region
// size, flat vs sharded-tree collection), the deterministic scheduler's
// configuration, console I/O, and trace record/replay — and the home of
// deterministic checkpoint/restore.
//
// A Session does not own a running machine; it is a validated
// configuration plus the run entry points. Every run — RunProgram, or
// one Step of a bound program — builds a fresh machine (restored from
// the resting checkpoint when there is one), which is what makes
// "resume in a fresh process" and "run the same program twice" the same
// operation.
//
// # Checkpoint/restore
//
// Programs that want mid-run persistence are written phased (Program):
// an explicit sequence of barrier-delimited phases, each of which forks,
// joins and barriers as it pleases but returns with every thread
// collected. At any phase barrier the Session can capture an Image — a
// versioned capture of the entire space tree (memory, snapshots,
// COW sharing, dirty tracking), every space's virtual time, instruction
// and traffic counters, the device cursors, the runtime's allocator and
// placement state, the scheduler state the program stashes, and (when
// recording) the trace log so far. Resuming the Image in a fresh Session
// — or a fresh process — continues the run bit-identically: final
// checksums, conflict reports and virtual times equal the uninterrupted
// run's. Checkpointing is itself a pure observation: a run that captures
// images is bit-identical to one that does not.
//
// # Lifecycle
//
// A Session moves through an explicit lifecycle:
//
//		Idle ──Bind──▶ Quiescent ──Step──▶ Running ──▶ Quiescent
//		  │               │   ▲                           │
//		  │         Suspend   └─────────Step──────────────┘
//		  │               ▼
//		  └─BindSuspended─▶ Suspended ──Step──▶ Running ──▶ Quiescent
//
//		any state but Running ──Close──▶ Closed
//
//	 - Idle: no program bound. RunProgram runs a whole program here and
//	   leaves the session Idle; Bind and BindSuspended attach one for
//	   stepping.
//	 - Running: an entry point is in flight. Any lifecycle call made
//	   concurrently fails immediately with *StateError instead of
//	   queueing behind the run (a Suspend mid-slice, a second Step).
//	 - Quiescent: the bound program rests at a phase barrier holding a
//	   captured in-memory Image (or, freshly bound, is about to run phase
//	   0); Step continues it, Suspend evicts it to a store.
//	 - Suspended: the checkpoint lives only in a BlobStore (as a chained
//	   Manifest); the session holds no image bytes. Step transparently
//	   resumes from the store.
//	 - Closed: terminal; everything but State and Close fails with
//	   *StateError.
//
// The stepped form is what a multi-tenant server drives (internal/serve):
// sessions run one timeslice at a time, yield at quiescence points, and
// are evicted to a shared store while idle. Resuming a checkpoint in a
// fresh Session — or a fresh process — is BindSuspended on its manifest
// followed by Step. RunProgram is the one convenience wrapper: it runs
// the same phased runner straight through, without capturing or
// serializing any image.
type Session struct {
	cfg SessionConfig

	// mu serializes the RunProgram/Step entry points and guards the per-run
	// fields below: a Session is reusable run after run, but one run at
	// a time — concurrent runs would cross-wire trace splicing and
	// checkpoint collection. Lifecycle entry points TryLock it: a call
	// arriving while a run is in flight gets *StateError{StateRunning}
	// rather than blocking. Concurrency belongs inside a run (the
	// machine), not across runs of one Session; use separate Sessions to
	// run in parallel.
	mu sync.Mutex

	// state is the session's resting lifecycle position. StateRunning is
	// never stored: it is implied by mu being held by an entry point.
	state SessionState

	// prog is the program bound by Bind/BindSuspended; nil while Idle.
	prog *Program

	// current is the checkpoint the session rests at (Quiescent); nil
	// when Idle or Suspended.
	current *Image

	// evictStore is the store Suspend evicted into (or BindSuspended
	// named); Step resumes from it.
	evictStore BlobStore

	// pos is the last known resting phase barrier (-1 for a
	// BindSuspended session that has not loaded its image yet).
	pos int

	// log is the live recording of the most recent run (Record mode);
	// prefix is the already-recorded log a resumed session splices in
	// front of it.
	log    *TraceLog
	prefix *TraceLog

	// lastManifest is the most recent manifest this session suspended to
	// or was bound to (BindSuspended); the next Suspend chains onto it.
	lastManifest *Manifest
}

// SessionState is a Session's position in its lifecycle.
type SessionState uint8

const (
	// StateIdle is an unbound session: no program, no checkpoint.
	StateIdle SessionState = iota
	// StateRunning marks an entry point in flight.
	StateRunning
	// StateQuiescent is a session resting at a phase barrier with a
	// captured in-memory checkpoint (or freshly bound, about to run
	// phase 0).
	StateQuiescent
	// StateSuspended is a session whose checkpoint has been evicted to a
	// BlobStore; only the chained manifest is held in memory.
	StateSuspended
	// StateClosed is terminal.
	StateClosed
)

func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateRunning:
		return "Running"
	case StateQuiescent:
		return "Quiescent"
	case StateSuspended:
		return "Suspended"
	case StateClosed:
		return "Closed"
	}
	return fmt.Sprintf("SessionState(%d)", uint8(s))
}

// StateError reports a lifecycle entry point invoked from a state that
// does not permit it: a Suspend or second Step while a run is in flight
// (StateRunning), Step without a bound program, RunProgram on a bound
// session, Suspend with nothing captured, anything but Close on a
// Closed session.
type StateError struct {
	Op    string       // the entry point that was refused
	State SessionState // the state the session was in
	Msg   string       // optional detail
}

func (e *StateError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("repro: %s in session state %s: %s", e.Op, e.State, e.Msg)
	}
	return fmt.Sprintf("repro: %s not allowed in session state %s", e.Op, e.State)
}

// begin acquires the session for the entry point op, failing with
// *StateError when a run is already in flight (no queueing) or the
// session is not in one of the allowed states. On success the caller
// holds mu and must release it.
func (s *Session) begin(op string, allowed ...SessionState) error {
	if !s.mu.TryLock() {
		return &StateError{Op: op, State: StateRunning}
	}
	for _, a := range allowed {
		if s.state == a {
			return nil
		}
	}
	st := s.state
	s.mu.Unlock()
	return &StateError{Op: op, State: st}
}

// State reports the session's lifecycle state. A session whose mutex is
// held by an in-flight entry point reports StateRunning.
func (s *Session) State() SessionState {
	if !s.mu.TryLock() {
		return StateRunning
	}
	defer s.mu.Unlock()
	return s.state
}

// SessionConfig is the unified configuration a Session is built from.
// The zero value is a valid single-node deterministic machine with
// default cost model, shared-region size and scheduler quantum.
type SessionConfig struct {
	// Machine configures the simulated machine (nodes, CPUs, cost model,
	// merge workers). Machine.Console must be nil when Input/Output are
	// set; the session builds the console.
	Machine MachineConfig
	// SharedSize is the private-workspace shared region size (0 selects
	// the default 64 MiB).
	SharedSize uint64
	// TreeJoin collects threads through the sharded per-node barrier
	// tree instead of the flat collector.
	TreeJoin bool
	// Sched is the deterministic-scheduler configuration used by
	// Session.NewSched.
	Sched SchedConfig
	// Record captures every nondeterministic device input of each run
	// into the log returned by TraceLog.
	Record bool
	// Replay drives the devices from a previously recorded log instead
	// of the configured sources. Mutually exclusive with Record.
	Replay *TraceLog
	// Input / Output are the console streams.
	Input  io.Reader
	Output io.Writer
}

// SessionOption mutates a SessionConfig under construction.
type SessionOption func(*SessionConfig)

// WithMachine sets the machine configuration.
func WithMachine(m MachineConfig) SessionOption {
	return func(c *SessionConfig) { c.Machine = m }
}

// WithSharedSize sets the shared-region size.
func WithSharedSize(n uint64) SessionOption {
	return func(c *SessionConfig) { c.SharedSize = n }
}

// WithTreeJoin selects sharded-tree collection.
func WithTreeJoin(on bool) SessionOption {
	return func(c *SessionConfig) { c.TreeJoin = on }
}

// WithSched sets the deterministic-scheduler configuration template.
func WithSched(cfg SchedConfig) SessionOption {
	return func(c *SessionConfig) { c.Sched = cfg }
}

// WithRecord enables trace recording.
func WithRecord() SessionOption {
	return func(c *SessionConfig) { c.Record = true }
}

// WithReplay replays a recorded trace log.
func WithReplay(l *TraceLog) SessionOption {
	return func(c *SessionConfig) { c.Replay = l }
}

// WithConsole sets the console streams.
func WithConsole(in io.Reader, out io.Writer) SessionOption {
	return func(c *SessionConfig) { c.Input, c.Output = in, out }
}

// ConfigError reports an invalid session or facade configuration value.
// The historical free-function constructors replaced such values with
// silent defaults; the Session path rejects them.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string { return fmt.Sprintf("repro: config %s: %s", e.Field, e.Reason) }

// maxSharedSize bounds the shared region: it must fit between SharedBase
// and the top of the 32-bit address space.
const maxSharedSize = uint64(1<<32) - uint64(core.SharedBase)

// NewSession builds a Session from functional options.
func NewSession(opts ...SessionOption) (*Session, error) {
	var cfg SessionConfig
	for _, o := range opts {
		o(&cfg)
	}
	return NewSessionFromConfig(cfg)
}

// NewSessionFromConfig builds a Session from a unified configuration,
// validating it: values the legacy constructors silently replaced with
// defaults are rejected with *ConfigError (zero values still select the
// documented defaults).
func NewSessionFromConfig(cfg SessionConfig) (*Session, error) {
	if cfg.Machine.Nodes < 0 {
		return nil, &ConfigError{Field: "Machine.Nodes", Reason: fmt.Sprintf("negative node count %d", cfg.Machine.Nodes)}
	}
	if cfg.Machine.CPUsPerNode < 0 {
		return nil, &ConfigError{Field: "Machine.CPUsPerNode", Reason: fmt.Sprintf("negative CPU count %d", cfg.Machine.CPUsPerNode)}
	}
	if cfg.Machine.MergeWorkers < 0 {
		return nil, &ConfigError{Field: "Machine.MergeWorkers", Reason: fmt.Sprintf("negative worker count %d", cfg.Machine.MergeWorkers)}
	}
	if cfg.SharedSize > maxSharedSize {
		return nil, &ConfigError{Field: "SharedSize", Reason: fmt.Sprintf("%d exceeds the %d-byte address space above the shared base", cfg.SharedSize, maxSharedSize)}
	}
	if err := cfg.Sched.Validate(); err != nil {
		return nil, err
	}
	if cfg.Record && cfg.Replay != nil {
		return nil, &ConfigError{Field: "Record/Replay", Reason: "mutually exclusive"}
	}
	if cfg.Machine.Console != nil && (cfg.Input != nil || cfg.Output != nil || cfg.Record || cfg.Replay != nil) {
		return nil, &ConfigError{Field: "Machine.Console", Reason: "set Input/Output on the session instead of supplying a console"}
	}
	return &Session{cfg: cfg}, nil
}

// Config returns the session's validated configuration.
func (s *Session) Config() SessionConfig { return s.cfg }

// TraceLog returns the trace recorded by the most recent RunProgram or
// Step (Record mode only). For a run resumed from a checkpoint the log is
// complete, not a suffix: the restore re-records the image's prefix
// while fast-forwarding the devices, so the result is bit-identical to
// the log an uninterrupted recording would have produced.
func (s *Session) TraceLog() *TraceLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log
}

// NewSched builds a deterministic scheduler from the session's scheduler
// configuration for a runtime created inside one of this session's runs.
func (s *Session) NewSched(rt *RT) (*Sched, error) {
	return dsched.NewChecked(rt, s.cfg.Sched)
}

// deviceConfig materializes the kernel configuration for one run:
// console plumbing, replay, resume-splicing and recording, in that
// wrapping order.
func (s *Session) deviceConfig() MachineConfig {
	cfg := s.cfg.Machine
	input := s.cfg.Input
	if s.cfg.Replay != nil {
		trace.Replay(&cfg, s.cfg.Replay)
		if len(s.cfg.Replay.Input) > 0 {
			input = s.cfg.Replay.ReplayInput()
		}
	}
	if s.prefix != nil {
		// Resuming a recorded run: the first reads of each device replay
		// the recorded prefix (consumed by the restore's fast-forward),
		// then reads fall through to the live sources.
		trace.ReplayPrefix(&cfg, s.prefix)
		input = s.prefix.PrefixReader(input)
	}
	if s.cfg.Record {
		s.log = trace.Record(&cfg)
		if input != nil {
			input = s.log.RecordInput(input)
		}
	}
	if input != nil || s.cfg.Output != nil {
		cfg.Console = kernel.NewConsole(input, s.cfg.Output)
	}
	return cfg
}

// Program is a phased deterministic program: the checkpointable form.
// All cross-phase state must live in the shared region (or in the
// sections Snapshot stashes); Go-side variables do not survive a resume.
type Program struct {
	// Phases is the number of barrier-delimited phases.
	Phases int
	// Layout replays the program's deterministic allocation sequence.
	// It runs before Init on a fresh start and again on every resume —
	// allocation is a pure bump pointer, so re-running it re-derives the
	// addresses Alloc handed out before the checkpoint. It must not read
	// or write memory, fork, or depend on anything but rt.Alloc order.
	Layout func(rt *RT)
	// Init writes the program's initial state. Fresh starts only.
	Init func(rt *RT)
	// Phase runs one barrier-delimited phase: fork/join/barrier freely,
	// but return with every thread collected. An error aborts the run.
	Phase func(rt *RT, phase int) error
	// Result computes the program's result after the last phase.
	Result func(rt *RT) uint64
	// Snapshot, if non-nil, contributes named sections to each captured
	// Image (e.g. a scheduler's exported state). It must not mutate
	// anything: a checkpointing run must stay bit-identical to an
	// uninterrupted one.
	Snapshot func(rt *RT) map[string][]byte
	// Restore, if non-nil, receives the image's sections on resume,
	// after Layout and before the first resumed phase.
	Restore func(rt *RT, sections map[string][]byte) error
}

// ProgramError reports a phased-program structural problem (rather than
// an error from the program's own phases).
type ProgramError struct{ Msg string }

func (e *ProgramError) Error() string { return "repro: program: " + e.Msg }

// RunProgram runs all phases of p to completion on a fresh machine and
// returns the machine result and the first program error (phase error,
// conflict, crash) if any. It captures no checkpoint: it is the
// convenience wrapper for run-to-completion uses on an unbound (Idle)
// session. A program with no phases runs just Result, so
// RunProgram(Program{Result: main}) runs main as a plain deterministic
// parallel program. To interleave, persist or resume runs, Bind the
// program and drive it with Step.
func (s *Session) RunProgram(p Program) (RunResult, error) {
	if err := s.begin("RunProgram", StateIdle); err != nil {
		return RunResult{}, err
	}
	defer s.mu.Unlock()
	res, _, err := s.runPhased(p, nil, 0)
	return res, err
}

// runPhased is the phased runner behind RunProgram and Step; the caller
// holds s.mu and has validated the lifecycle state. It runs phases
// [start, stop) on a fresh machine, where start is 0 or img.Phase when
// resuming img. A stop > 0 requests a checkpoint at barrier stop, which
// is captured and returned once the run crosses it; stop == 0 runs to
// the end without capturing. Result is computed iff the run reaches
// p.Phases.
func (s *Session) runPhased(p Program, img *Image, stop int) (RunResult, *Image, error) {
	if p.Phases < 0 || (p.Phases > 0 && p.Phase == nil) {
		return RunResult{}, nil, &ProgramError{Msg: "Phase function missing"}
	}
	if img != nil {
		s.prefix = img.TracePrefix
		defer func() { s.prefix = nil }()
	}

	m := kernel.New(s.deviceConfig())
	start := 0
	if img != nil {
		if err := m.Restore(img.kernel, img.forest); err != nil {
			return RunResult{}, nil, err
		}
		start = img.Phase
		if start > p.Phases {
			return RunResult{}, nil, &ProgramError{Msg: fmt.Sprintf("image resumes at phase %d of a %d-phase program", start, p.Phases)}
		}
	}
	end := p.Phases
	if stop > 0 {
		end = stop
	}

	var progErr error
	var captured *Image
	res := m.Run(func(env *kernel.Env) {
		var rt *RT
		if img != nil {
			var err error
			rt, err = core.Attach(env, img.RT, p.Layout)
			if err != nil {
				progErr = err
				return
			}
			if p.Restore != nil {
				if err := p.Restore(rt, img.User); err != nil {
					progErr = err
					return
				}
			}
		} else {
			rt = core.New(env, s.cfg.SharedSize)
			rt.SetTreeJoin(s.cfg.TreeJoin)
			if p.Layout != nil {
				p.Layout(rt)
			}
			if p.Init != nil {
				p.Init(rt)
			}
		}
		for ph := start; ph < end; ph++ {
			if err := p.Phase(rt, ph); err != nil {
				progErr = err
				return
			}
		}
		if stop > start {
			im, err := s.capture(env, rt, p, stop)
			if err != nil {
				progErr = err
				return
			}
			captured = im
		}
		if end == p.Phases && p.Result != nil {
			env.SetRet(p.Result(rt))
		}
	}, 0)
	return res, captured, progErr
}

// capture takes one checkpoint at a phase barrier: the kernel metadata
// and memory forest of the whole space tree plus the runtime, program
// and trace state.
func (s *Session) capture(env *Env, rt *RT, p Program, resumePhase int) (*Image, error) {
	kmeta, forest, err := env.Checkpoint(kernel.CheckpointOpts{AllowParked: rt.DelegateRefs()})
	if err != nil {
		return nil, err
	}
	im := &Image{Phase: resumePhase, RT: rt.ExportState(), kernel: kmeta, forest: forest}
	if p.Snapshot != nil {
		im.User = p.Snapshot(rt)
	}
	if s.cfg.Record && s.log != nil {
		im.TracePrefix = s.log.Clone()
	}
	return im, nil
}

// --- stepped lifecycle --------------------------------------------------------

// StepResult describes where one Step left the session.
type StepResult struct {
	// Phase is the barrier the session now rests at.
	Phase int
	// Done reports that every phase has run; Result is valid.
	Done bool
	// Pages is the size of the resting checkpoint — its kernel metadata
	// plus its memory forest — in whole pages: the session's resident
	// cost while Quiescent.
	Pages int
	// Digest is a content hash of the resting checkpoint: its metadata
	// leaf and the full root of its forest, which names every page and
	// table chunk by content key. Because checkpoints are canonical, two
	// executions of the same slice from the same checkpoint must produce
	// equal digests — the bit-identity a retrying server asserts.
	Digest ChunkKey
	// Result is the machine result of the final slice (Done only).
	Result RunResult
}

// Bind attaches a phased program to the session for stepped execution,
// leaving it Quiescent at phase 0. A bound session is driven with
// Step/Suspend/Close; RunProgram refuses it.
func (s *Session) Bind(p Program) error {
	if err := s.begin("Bind", StateIdle); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if p.Phases < 0 || (p.Phases > 0 && p.Phase == nil) {
		return &ProgramError{Msg: "Phase function missing"}
	}
	s.prog = &p
	s.current = nil
	s.lastManifest = nil
	s.evictStore = nil
	s.pos = 0
	s.state = StateQuiescent
	return nil
}

// BindSuspended attaches a program to a checkpoint that lives in a
// store — the admission path for a session that some other process (or
// a killed worker) left suspended. The session starts Suspended; the
// first Step loads the image and continues it, and later saves chain
// onto m.
func (s *Session) BindSuspended(p Program, store BlobStore, m *Manifest) error {
	if err := s.begin("BindSuspended", StateIdle); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if p.Phases < 0 || (p.Phases > 0 && p.Phase == nil) {
		return &ProgramError{Msg: "Phase function missing"}
	}
	if store == nil || m == nil {
		return &ProgramError{Msg: "BindSuspended needs a store and a manifest"}
	}
	s.prog = &p
	s.current = nil
	s.lastManifest = m
	s.evictStore = store
	s.pos = -1 // unknown until the first Step loads the image
	s.state = StateSuspended
	return nil
}

// Step runs the bound program forward by at most budget phases and
// captures a checkpoint at the barrier it stops at, leaving the session
// Quiescent there. A Suspended session transparently reloads its image
// from the store first. The final slice both checkpoints at the last
// barrier and computes the program result; re-stepping a finished
// session re-derives the same result from the resting image (delivery
// is idempotent because execution is deterministic).
//
// A slice that dies mid-way — a phase returns an error or panics (the
// kernel converts the panic into a trap status), or the machine traps —
// returns that error with the pre-slice checkpoint intact, so a killed
// worker's slice can simply be re-run; because execution is
// deterministic, the retry's StepResult.Digest must equal the digest the
// first attempt would have produced. The failed slice's StepResult
// carries only Result: the machine result at the failure.
func (s *Session) Step(budget int) (StepResult, error) {
	if err := s.begin("Step", StateQuiescent, StateSuspended); err != nil {
		return StepResult{}, err
	}
	defer s.mu.Unlock()
	if s.prog == nil {
		return StepResult{}, &StateError{Op: "Step", State: s.state, Msg: "no program bound; Bind one first"}
	}
	if budget < 1 {
		return StepResult{}, &ProgramError{Msg: fmt.Sprintf("step budget %d (must be >= 1)", budget)}
	}
	p := *s.prog
	img := s.current
	if s.state == StateSuspended {
		loaded, err := LoadImage(s.evictStore, s.lastManifest)
		if err != nil {
			return StepResult{}, err
		}
		img = loaded
	}
	pos := 0
	if img != nil {
		pos = img.Phase
	}
	stop := pos + budget
	if stop > p.Phases {
		stop = p.Phases
	}
	// Crash safety: a panic inside a phase must leave the pre-slice
	// resting state intact so the slice can be re-run from it.
	prevState, prevCur := s.state, s.current
	defer func() {
		if r := recover(); r != nil {
			s.state, s.current = prevState, prevCur
			panic(r)
		}
	}()
	res, captured, err := s.runPhased(p, img, stop)
	if err == nil && captured == nil && pos < p.Phases {
		// The machine stopped before the slice's barrier: a phase panicked
		// (the kernel converts panics into trap statuses) or trapped.
		err = res.Err
		if err == nil {
			err = &ProgramError{Msg: fmt.Sprintf("slice ended before barrier %d", stop)}
		}
	}
	if err != nil {
		s.state, s.current = prevState, prevCur
		return StepResult{Result: res}, err
	}
	if captured != nil {
		s.current = captured
	} else if img != nil {
		// Re-stepping a finished program: no new barrier was crossed, the
		// resting image is unchanged.
		s.current = img
	}
	s.state = StateQuiescent
	sr := StepResult{Phase: p.Phases}
	if s.current != nil {
		sr.Phase = s.current.Phase
		sr.Pages = (len(s.current.kernel) + s.current.forest.Size()) >> vm.PageShift
		digest, err := s.current.digest()
		if err != nil {
			return StepResult{}, err
		}
		sr.Digest = digest
	}
	s.pos = sr.Phase
	sr.Done = sr.Phase == p.Phases
	if sr.Done {
		sr.Result = res
	}
	return sr, nil
}

// Suspend evicts the session's resting checkpoint into store and drops
// it from memory, leaving the session Suspended: its only cost until
// the next Step is the chained manifest. Successive Suspends chain (onto
// the manifest a BindSuspended session was admitted from, too), so each
// eviction stores only chunks new since the previous one.
func (s *Session) Suspend(store BlobStore) (*Manifest, error) {
	if err := s.begin("Suspend", StateQuiescent); err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	if s.current == nil {
		return nil, &StateError{Op: "Suspend", State: s.state,
			Msg: "no captured checkpoint to evict; Step first"}
	}
	m, err := SaveImage(store, s.current, s.lastManifest)
	if err != nil {
		return nil, err
	}
	s.lastManifest = m
	s.evictStore = store
	s.current = nil
	s.state = StateSuspended
	return m, nil
}

// Close releases the session's in-memory run state and moves it to the
// terminal Closed state. Closing an already-closed session is a no-op;
// closing mid-run fails with *StateError. The store side is untouched:
// a Suspended session's manifest chain survives its Session, and
// LastManifest remains readable for GC rooting or re-admission.
func (s *Session) Close() error {
	if !s.mu.TryLock() {
		return &StateError{Op: "Close", State: StateRunning}
	}
	defer s.mu.Unlock()
	s.state = StateClosed
	s.prog = nil
	s.current = nil
	s.log = nil
	s.prefix = nil
	return nil
}

// Phase reports the phase barrier the session rests at: 0 for a freshly
// bound program, -1 for a BindSuspended session that has not loaded its
// image yet.
func (s *Session) Phase() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.current != nil {
		return s.current.Phase
	}
	return s.pos
}

// LastManifest returns the most recent manifest this session suspended
// to or was bound to (BindSuspended), nil when none: the root to protect during store GC and the handle needed
// to re-admit the session elsewhere.
func (s *Session) LastManifest() *Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastManifest
}

// --- checkpoint images --------------------------------------------------------

// Image is one captured checkpoint: everything a fresh process needs to
// continue the run bit-identically. Its machine state is the kernel's
// capture in two parts: a small metadata image (configuration, device
// cursors, every space's record) and the memory forest in the shape
// the store persists it. An Image is stored with SaveImage — the forest
// as content-addressed chunks, everything else in one metadata leaf —
// and read back with LoadImage.
type Image struct {
	// Phase is the phase index the resumed run continues at.
	Phase int
	// RT is the runtime bookkeeping (allocator cursor, placements,
	// collection mode).
	RT core.RTState
	// User holds the sections Program.Snapshot contributed.
	User map[string][]byte
	// TracePrefix is the trace recorded up to the checkpoint (Record
	// mode only): the part of the log a resumed recording splices in
	// front of its own.
	TracePrefix *TraceLog

	kernel []byte     // kernel metadata image (kernel.Env.Checkpoint)
	forest *vm.Forest // memory of every space and snapshot
}

// ImageVersion is the version of an image's metadata leaf. The kernel
// metadata it embeds (kernel.CheckpointVersion) and the forest root
// carry their own versions.
const ImageVersion = 1

const imageMagic = "DSES"

// ImageError reports a structurally invalid image: a damaged metadata
// leaf, or an Image holding no captured machine state.
type ImageError struct {
	Offset int
	Msg    string
}

func (e *ImageError) Error() string {
	return fmt.Sprintf("repro: bad session image at byte %d: %s", e.Offset, e.Msg)
}

// digest hashes the image's metadata leaf and its forest's full root:
// the page and table keys the capture computed, not the pages again.
func (im *Image) digest() (ChunkKey, error) {
	meta, err := im.metaBytes()
	if err != nil {
		return ChunkKey{}, err
	}
	return castore.KeyOf(append(meta, im.forest.Root()...)), nil
}

// metaBytes serializes everything but the forest: the metadata leaf
// SaveImage stores. The encoding is canonical: the same image state
// always produces the same bytes.
func (im *Image) metaBytes() ([]byte, error) {
	var b []byte
	b = append(b, imageMagic...)
	b = append(b, ImageVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(im.Phase))

	b = binary.LittleEndian.AppendUint32(b, im.RT.Base)
	b = binary.LittleEndian.AppendUint64(b, im.RT.Size)
	b = binary.LittleEndian.AppendUint32(b, im.RT.Next)
	var tj byte
	if im.RT.TreeJoin {
		tj = 1
	}
	b = append(b, tj)
	ids := make([]int, 0, len(im.RT.Placed))
	for id := range im.RT.Placed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(id)))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(im.RT.Placed[id])))
	}

	names := make([]string, 0, len(im.User))
	for n := range im.User {
		names = append(names, n)
	}
	sort.Strings(names)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(names)))
	for _, n := range names {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(n)))
		b = append(b, n...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(im.User[n])))
		b = append(b, im.User[n]...)
	}

	if im.TracePrefix != nil {
		tb, err := json.Marshal(im.TracePrefix)
		if err != nil {
			return nil, err
		}
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(tb)))
		b = append(b, tb...)
	} else {
		b = append(b, 0)
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(im.kernel)))
	b = append(b, im.kernel...)
	return imgenc.Seal(b), nil
}

// decodeMeta parses a metadata leaf into an Image without its forest.
// Corrupt or truncated input, or a newer format version, returns
// *ImageError.
func decodeMeta(data []byte) (*Image, error) {
	r, err := imgenc.Open(data, imageMagic, ImageVersion,
		func(off int, msg string) error { return &ImageError{Offset: off, Msg: msg} },
		func(v byte) error {
			return &ImageError{Offset: 4, Msg: fmt.Sprintf("image version %d not supported (max %d)", v, ImageVersion)}
		})
	if err != nil {
		return nil, err
	}
	im := &Image{}
	im.Phase = int(r.U32())
	im.RT.Base = r.U32()
	im.RT.Size = r.U64()
	im.RT.Next = r.U32()
	im.RT.TreeJoin = r.U8() != 0
	nPlaced := int(r.U32())
	if r.Err == nil && nPlaced*16 > len(r.B) {
		r.Failf("placement count %d exceeds image", nPlaced)
	}
	for i := 0; i < nPlaced && r.Err == nil; i++ {
		id := int(int64(r.U64()))
		node := int(int64(r.U64()))
		if im.RT.Placed == nil {
			im.RT.Placed = make(map[int]int)
		}
		im.RT.Placed[id] = node
	}
	nUser := int(r.U32())
	if r.Err == nil && nUser > len(r.B) {
		r.Failf("section count %d exceeds image", nUser)
	}
	for i := 0; i < nUser && r.Err == nil; i++ {
		name := r.Str()
		body := r.Take(int(r.U32()))
		if r.Err != nil {
			break
		}
		if im.User == nil {
			im.User = make(map[string][]byte)
		}
		im.User[name] = append([]byte(nil), body...)
	}
	if r.U8() != 0 {
		tb := r.Take(int(r.U32()))
		if r.Err == nil {
			l, err := trace.Unmarshal(tb)
			if err != nil {
				return nil, &ImageError{Offset: r.Off, Msg: fmt.Sprintf("trace prefix: %v", err)}
			}
			im.TracePrefix = l
		}
	}
	im.kernel = append([]byte(nil), r.Take(int(r.U32()))...)
	if r.Err == nil && r.Remaining() != 0 {
		r.Failf("%d trailing bytes", r.Remaining())
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return im, nil
}

// AttachSched rebuilds a deterministic scheduler from state exported by
// Sched.ExportState — the Program.Restore-side pair of stashing the
// scheduler in a checkpoint image (see SchedState).
func AttachSched(rt *RT, cfg SchedConfig, st SchedState) (*Sched, error) {
	return dsched.AttachState(rt, cfg, st)
}
