package repro

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/castore"
)

// TestPersistedKeysGolden pins the persisted checkpoint form: a fixed
// program stepped one phase at a time, suspended after every step,
// writes exactly the chunk keys listed in the golden file — every page
// and table chunk, forest root (full and delta), metadata leaf and
// manifest. Keys are content hashes, so an equal key list means equal
// stored bytes: stores written by earlier builds stay readable, and the
// store traffic of a run is unchanged.
func TestPersistedKeysGolden(t *testing.T) {
	p := arrayProgram(2, 5, 1024, -1, nil)
	store := NewMemStore()
	s := mustSession(t, WithMachine(MachineConfig{CPUsPerNode: 2, MergeWorkers: 1}))
	if err := s.Bind(p); err != nil {
		t.Fatal(err)
	}
	deltas := 0
	for done := false; !done; {
		sr, err := s.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		done = sr.Done
		m, err := s.Suspend(store)
		if err != nil {
			t.Fatal(err)
		}
		root, err := castore.GetNode(store, m.forest)
		if err != nil {
			t.Fatal(err)
		}
		if len(root.NodeRefs) > 0 {
			deltas++
		}
	}
	if deltas == 0 {
		t.Fatal("no suspend wrote a delta forest root; the golden would not cover one")
	}

	var keys []string
	if err := store.Keys(func(k ChunkKey, _ BlobInfo) error {
		keys = append(keys, k.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	got := strings.Join(keys, "\n") + "\n"

	golden := filepath.Join("testdata", "persisted_keys.golden")
	want, err := os.ReadFile(golden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("golden file created; commit %s and re-run", golden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("stored keys differ from %s (%d keys, golden has %d): the persisted form changed",
			golden, len(keys), strings.Count(string(want), "\n"))
	}
}
