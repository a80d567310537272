package bench

import (
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The harness itself under test: quick-mode experiments must produce
// well-formed tables with the expected structure, and deterministic
// virtual-time columns must repeat exactly.

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, "../..", Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != id {
				t.Errorf("table id %q, want %q", tab.ID, id)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, r := range tab.Rows {
				if len(r) != len(tab.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(r), len(tab.Header))
				}
			}
			out := tab.Format()
			if !strings.Contains(out, tab.Title) {
				t.Error("formatted output missing title")
			}
		})
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	if _, err := Run("fig99", ".", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig7RatiosReproduceShape(t *testing.T) {
	// The coarse/fine split is the paper's headline: md5 and matmult
	// must land near parity, the lu pair well above, and lu_noncont
	// above lu_cont.
	tab := Fig7(Options{Quick: false, CPUs: 12})
	ratios := map[string]float64{}
	for _, r := range tab.Rows {
		v, err := strconv.ParseFloat(r[4], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", r[4])
		}
		ratios[r[0]] = v
	}
	if ratios["md5"] > 1.3 {
		t.Errorf("md5 ratio %.2f, want near parity", ratios["md5"])
	}
	if ratios["matmult"] > 1.5 {
		t.Errorf("matmult ratio %.2f, want near parity", ratios["matmult"])
	}
	if ratios["lu_cont"] < 1.5 {
		t.Errorf("lu_cont ratio %.2f, want clearly above parity", ratios["lu_cont"])
	}
	if ratios["lu_noncont"] <= ratios["lu_cont"] {
		t.Errorf("lu_noncont (%.2f) not worse than lu_cont (%.2f): layout distinction lost",
			ratios["lu_noncont"], ratios["lu_cont"])
	}
	if ratios["fft"] < 2 {
		t.Errorf("fft ratio %.2f, want fine-grained penalty", ratios["fft"])
	}
}

func TestFig8SpeedupShape(t *testing.T) {
	tab := Fig8(Options{Quick: false, CPUs: 12})
	get := func(name string, col int) float64 {
		for _, r := range tab.Rows {
			if r[0] == name {
				v, _ := strconv.ParseFloat(r[col], 64)
				return v
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	last := len(tab.Header) - 1
	if s := get("md5", last); s < 8 {
		t.Errorf("md5 12-cpu speedup %.2f, want near-linear", s)
	}
	if s := get("lu_noncont", last); s > 5 {
		t.Errorf("lu_noncont 12-cpu speedup %.2f, want poor scaling", s)
	}
	// Monotone in CPU count for md5 (embarrassingly parallel).
	prev := 0.0
	for col := 1; col <= last; col++ {
		s := get("md5", col)
		if s < prev-0.01 {
			t.Errorf("md5 speedup not monotone at column %d: %.2f after %.2f", col, s, prev)
		}
		prev = s
	}
}

func TestFig11DistributedShape(t *testing.T) {
	tab := Fig11(Options{Quick: true})
	get := func(name string, col int) float64 {
		for _, r := range tab.Rows {
			if r[0] == name {
				v, _ := strconv.ParseFloat(r[col], 64)
				return v
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	last := len(tab.Header) - 1
	if tree, mm := get("md5-tree", last), get("matmult-tree", last); tree <= mm {
		t.Errorf("md5-tree (%.2f) should outscale matmult-tree (%.2f)", tree, mm)
	}
}

func TestQuantumOverheadDecreases(t *testing.T) {
	tab := Quantum(Options{Quick: true})
	var overheads []float64
	for _, r := range tab.Rows {
		s := strings.TrimSuffix(strings.TrimPrefix(r[3], "+"), "%")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad overhead cell %q", r[3])
		}
		overheads = append(overheads, v)
	}
	for i := 1; i < len(overheads); i++ {
		if overheads[i] > overheads[i-1]+0.5 {
			t.Errorf("overhead rose with larger quantum: %v", overheads)
		}
	}
	if overheads[0] < 5 {
		t.Errorf("smallest quantum shows only %.1f%% overhead; sweep not exercising rounds", overheads[0])
	}
}

func TestTab3CountsNonzero(t *testing.T) {
	tab := Tab3("../..")
	if len(tab.Rows) < 4 {
		t.Fatalf("tab3 found only %d component groups", len(tab.Rows))
	}
	total := tab.Rows[len(tab.Rows)-1]
	lines, err := strconv.Atoi(total[2])
	if err != nil || lines < 3000 {
		t.Errorf("total line count %q implausible", total[2])
	}
}

// TestTab3CoversEveryPackage checks that the Table 3 groups partition
// the module: every directory holding Go files under the root, cmd/,
// internal/ and examples/ falls in exactly one group, so a new package
// cannot silently drop out of the code-size count.
func TestTab3CoversEveryPackage(t *testing.T) {
	const root = "../.."
	pkgs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			switch {
			case rel == ".":
			case d.Name() == "testdata" || strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			case rel == "perfbench": // a separate module
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") {
			pkgs[filepath.ToSlash(filepath.Dir(rel))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{".", "cmd/codesize", "internal/castore", "internal/imgenc", "examples/castore"} {
		if !pkgs[want] {
			t.Fatalf("walk found no Go files in %s", want)
		}
	}
	covers := func(dir, pkg string) bool {
		if dir == "." {
			return pkg == "."
		}
		return pkg == dir || strings.HasPrefix(pkg, dir+"/")
	}
	for pkg := range pkgs {
		var in []string
		for _, g := range tab3Groups() {
			for _, d := range g.dirs {
				if covers(d, pkg) {
					in = append(in, g.name)
				}
			}
		}
		if len(in) != 1 {
			t.Errorf("package %s falls in %d tab3 groups %q, want exactly 1", pkg, len(in), in)
		}
	}
}

func TestExperimentVTDeterministic(t *testing.T) {
	// Deterministic columns of a vt-only experiment must be identical
	// across harness invocations.
	a := Fig11(Options{Quick: true})
	b := Fig11(Options{Quick: true})
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("fig11 cell (%d,%d) differs across runs: %q vs %q",
					i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"name", "value"},
	}
	tab.AddRow("a", "1")
	tab.AddRow("long-name", "22")
	tab.Note("a note with %d", 7)
	out := tab.Format()
	if !strings.Contains(out, "== x: demo ==") || !strings.Contains(out, "note: a note with 7") {
		t.Errorf("format output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Errorf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
}
