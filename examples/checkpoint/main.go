// Checkpoint/resume walkthrough: a phased parallel program steps half
// way, suspends the whole machine into a checkpoint store at a barrier,
// and a completely fresh session — in a real deployment, a fresh
// process — is admitted on the checkpoint's manifest and steps it to a
// bit-identical result.
//
//	go run ./examples/checkpoint
package main

import (
	"fmt"
	"log"

	repro "repro"
)

const (
	threads = 4
	phases  = 6
	words   = 1 << 14
)

// program is a phased map/reduce: every phase each thread perturbs its
// stripe of a shared array, and a running digest accumulates the
// per-thread sums. All cross-phase state lives in the shared region, so
// the program is checkpointable at every phase barrier. Layout re-runs
// on resume to re-derive the addresses; Init runs only on fresh starts.
func program() (repro.Program, *repro.Addr) {
	var arr, digest repro.Addr
	p := repro.Program{
		Phases: phases,
		Layout: func(rt *repro.RT) {
			arr = rt.Alloc(8*words, 8)
			digest = rt.Alloc(8, 8)
		},
		Init: func(rt *repro.RT) {
			for i := 0; i < words; i++ {
				rt.Env().WriteU64(arr+repro.Addr(8*i), uint64(i))
			}
			rt.Env().WriteU64(digest, 1)
		},
		Phase: func(rt *repro.RT, phase int) error {
			sums, err := rt.ParallelDo(threads, func(t *repro.Thread) uint64 {
				lo, hi := t.ID*words/threads, (t.ID+1)*words/threads
				var sum uint64
				for i := lo; i < hi; i++ {
					a := arr + repro.Addr(8*i)
					v := t.Env().ReadU64(a)*6364136223846793005 + uint64(phase) + 1
					t.Env().WriteU64(a, v)
					sum += v
				}
				return sum
			})
			if err != nil {
				return err
			}
			h := rt.Env().ReadU64(digest)
			for _, s := range sums {
				h = h*31 + s
			}
			rt.Env().WriteU64(digest, h)
			return nil
		},
		Result: func(rt *repro.RT) uint64 { return rt.Env().ReadU64(digest) },
	}
	return p, &digest
}

func main() {
	machine := repro.MachineConfig{CPUsPerNode: threads}

	// Reference: the uninterrupted run.
	ref, err := repro.NewSession(repro.WithMachine(machine))
	if err != nil {
		log.Fatal(err)
	}
	p, _ := program()
	want, err := ref.RunProgram(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uninterrupted: digest=%#x vt=%d\n", want.Ret, want.VT)

	// Step half the phases, then suspend the machine at that barrier
	// into a store: the checkpoint is now the store's chunks plus a small
	// manifest naming them.
	half, err := repro.NewSession(repro.WithMachine(machine))
	if err != nil {
		log.Fatal(err)
	}
	if err := half.Bind(p); err != nil {
		log.Fatal(err)
	}
	if _, err := half.Step(phases / 2); err != nil {
		log.Fatal(err)
	}
	store := repro.NewMemStore()
	m, err := half.Suspend(store)
	if err != nil {
		log.Fatal(err)
	}
	st, err := store.Stats()
	if err != nil {
		log.Fatal(err)
	}
	manifest := m.Bytes()
	fmt.Printf("checkpoint:    %d-byte manifest over %d KiB of chunks after %d phases\n",
		len(manifest), st.LogicalSize>>10, phases/2)

	// A fresh session (fresh process, fresh machine) is admitted on the
	// manifest bytes and steps through the remaining phases.
	m2, err := repro.DecodeManifest(manifest)
	if err != nil {
		log.Fatal(err)
	}
	resumed, err := repro.NewSession(repro.WithMachine(machine))
	if err != nil {
		log.Fatal(err)
	}
	p2, _ := program() // fresh program value: no Go state crosses over
	if err := resumed.BindSuspended(p2, store, m2); err != nil {
		log.Fatal(err)
	}
	sr, err := resumed.Step(phases)
	if err != nil {
		log.Fatal(err)
	}
	got := sr.Result
	fmt.Printf("resumed:       digest=%#x vt=%d\n", got.Ret, got.VT)

	if got.Ret != want.Ret || got.VT != want.VT || got.Insns != want.Insns {
		log.Fatal("resumed run diverged from the uninterrupted one")
	}
	fmt.Println("bit-identical: checksum, virtual time and instruction counts all match")
}
