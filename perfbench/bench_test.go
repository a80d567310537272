package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// smallServe keeps the serve tests quick while still evicting: more
// clients than the resident cap.
func smallServe() serveWorkload {
	w := defaultServe()
	w.sessions, w.clients, w.resident = 8, 4, 2
	return w
}

func testBenchmarks() map[string]benchmark {
	return map[string]benchmark{"compute": computeWorkload{}, "serve": smallServe(), "build": buildWorkload{}}
}

// deterministic lists, per workload, the per-layer counts that must
// repeat exactly for a seed whatever the tracing or timing.
var deterministic = map[string][]string{
	"compute": {"kernel.vt_per_op", "kernel.insns_per_op", "dsched.rounds_per_op",
		"dsched.sync_skip_ratio", "dsched.tables_resynced_per_op", "dsched.pages_compared_per_op"},
	"serve": {"kernel.vt_per_op", "kernel.insns_per_op"},
	"build": {"kernel.vt_per_op", "detmake.executed_per_op", "detmake.hit_ratio",
		"detmake.waves_per_op", "castore.put_per_op"},
}

type outcome struct {
	ops    int
	digest uint64
	counts map[string]float64
}

// runFixed sets up and runs a fixed number of rounds, failing the test
// on any error.
func runFixed(t *testing.T, b benchmark, seed uint64, traced bool, rounds int) outcome {
	t.Helper()
	e := env{seed: seed, procs: runtime.GOMAXPROCS(0)}
	if traced {
		e.tr = newTracer()
	}
	fx, err := b.setup(e)
	if err != nil {
		t.Fatalf("set-up: %v", err)
	}
	defer fx.close()
	g := runRegion(fx, e.tr, 0, rounds)
	if g.err == nil {
		g.err = fx.verify()
	}
	if g.err != nil {
		t.Fatalf("run: %v", g.err)
	}
	return outcome{ops: g.ops, digest: fx.digest(), counts: fx.layers(&g)}
}

// TestTracedMatchesUntraced: the wrappers and spans observe and change
// nothing. Traced and untraced runs of each workload give the same
// result digest, VT and deterministic counts; those counts are per-op
// averages that do not depend on how many rounds a run fits in; and a
// second seed runs clean with different inputs.
func TestTracedMatchesUntraced(t *testing.T) {
	for name, b := range testBenchmarks() {
		t.Run(name, func(t *testing.T) {
			plain := runFixed(t, b, 1, false, 2)
			traced := runFixed(t, b, 1, true, 2)
			if plain.ops != traced.ops || plain.digest != traced.digest {
				t.Errorf("untraced %d ops digest %#x, traced %d ops digest %#x",
					plain.ops, plain.digest, traced.ops, traced.digest)
			}
			for _, k := range deterministic[name] {
				if plain.counts[k] != traced.counts[k] {
					t.Errorf("%s: untraced %v, traced %v", k, plain.counts[k], traced.counts[k])
				}
			}
			if plain.counts["kernel.vt_per_op"] == 0 {
				t.Error("kernel.vt_per_op is 0")
			}
			longer := runFixed(t, b, 1, false, 3)
			for _, k := range deterministic[name] {
				if plain.counts[k] != longer.counts[k] {
					t.Errorf("%s: 2 rounds %v, 3 rounds %v", k, plain.counts[k], longer.counts[k])
				}
			}
			other := runFixed(t, b, 2, false, 1)
			if other.digest == plain.digest {
				t.Error("seed 2 gave the same digest as seed 1: the seed reaches no input")
			}
		})
	}
}

func wantGate(t *testing.T, err error) {
	t.Helper()
	var g *gateError
	if !errors.As(err, &g) {
		t.Fatalf("got %v, want a gate failure", err)
	}
}

// The gates fail the run on a planted mismatch.
func TestGatesCatchPlantedMismatch(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	rec := func() *recorder { return &recorder{runSpan: -1} }

	t.Run("compute checksum", func(t *testing.T) {
		fx, err := computeWorkload{}.setup(env{seed: 1, procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		fx.(*computeFixture).want["fft"] ^= 1
		wantGate(t, fx.round(rec()))
	})
	t.Run("compute VT", func(t *testing.T) {
		fx, err := computeWorkload{}.setup(env{seed: 1, procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		fx.(*computeFixture).wantVT["qsort"]++
		wantGate(t, fx.round(rec()))
	})
	t.Run("serve result", func(t *testing.T) {
		fx, err := smallServe().setup(env{seed: 1, procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		defer fx.close()
		fx.(*serveFixture).want[3].Ret ^= 1
		wantGate(t, fx.round(rec()))
	})
	t.Run("serve resident bound", func(t *testing.T) {
		fx, err := smallServe().setup(env{seed: 1, procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		defer fx.close()
		if err := fx.round(rec()); err != nil {
			t.Fatal(err)
		}
		fx.(*serveFixture).perPages = 1
		wantGate(t, fx.verify())
	})
	t.Run("build cone", func(t *testing.T) {
		fx, err := buildWorkload{}.setup(env{seed: 1, procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		bf := fx.(*buildFixture)
		for leaf, cone := range bf.cones {
			bf.cones[leaf] = cone[1:]
		}
		wantGate(t, fx.round(rec()))
	})
	t.Run("build cold digest", func(t *testing.T) {
		fx, err := buildWorkload{}.setup(env{seed: 1, procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		if err := fx.round(rec()); err != nil {
			t.Fatal(err)
		}
		bf := fx.(*buildFixture)
		bf.checks[0].digest[0] ^= 1
		wantGate(t, fx.verify())
	})
	t.Run("build no-op", func(t *testing.T) {
		fx, err := buildWorkload{}.setup(env{seed: 1, procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		bf := fx.(*buildFixture)
		res, err := bf.build(bf.sources)
		if err != nil {
			t.Fatal(err)
		}
		res.Checksum ^= 1
		noop, err := bf.build(bf.sources)
		if err != nil {
			t.Fatal(err)
		}
		wantGate(t, noopGate(noop, res))
	})
}

// TestRunOutput drives the command end to end: the last line is the
// JSON result with exactly the listed metrics, every one with its unit,
// and a traced run's layer CPU times sum to its cpu_ms_per_op.
func TestRunOutput(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		spans := filepath.Join(t.TempDir(), "spans.tsv")
		code := run([]string{"--workload", "build", "--seed", "3", "--seconds", "0.3",
			"--trace", trace, "--spans", spans}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v", err)
		}
		if !strings.HasPrefix(lines[len(lines)-2], "host {") {
			t.Errorf("no host metadata before the result: %q", lines[len(lines)-2])
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
			t.Fatalf("trace %s: result %+v", trace, res)
		}
		for _, m := range want {
			if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, m.name, v, m.unit)
			}
		}
		if trace == "1" {
			var sum float64
			for _, l := range layers {
				sum += res.Metrics[l+".cpu_ms_per_op"].Value
			}
			total := res.Metrics["trace.cpu_ms_per_op"].Value
			if math.Abs(sum-total) > 1e-9*total {
				t.Errorf("layer CPU sums to %v, traced cpu_ms_per_op is %v", sum, total)
			}
			if _, err := os.Stat(spans); err != nil {
				t.Errorf("spans not written: %v", err)
			}
		}
	}

	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nosuch"}, &out, &errb); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// TestBenchmarkJSON: the metric lists here and in BENCHMARK.json agree.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := benchmarks[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestLatencyBlocks checks that latency blocks are whole rounds of at
// least blockOps ops, that a short remainder joins the last block, and
// that a percentile is the median of the blocks' percentiles.
func TestLatencyBlocks(t *testing.T) {
	var g region
	// Rounds of half a block: two rounds of 1s, two of 2s, two of 3s,
	// and a half-block remainder of 9s.
	for r := 0; r < 7; r++ {
		v := float64(r/2 + 1)
		if r == 6 {
			v = 9
		}
		g.rounds = append(g.rounds, roundStat{ops: blockOps / 2})
		for i := 0; i < blockOps/2; i++ {
			g.lat = append(g.lat, v)
		}
	}
	b := g.blocks()
	if len(b) != 3 || len(b[0]) != blockOps || len(b[1]) != blockOps || len(b[2]) != blockOps+blockOps/2 {
		t.Fatalf("%d blocks, the last of %d latencies: want 3, the last of %d", len(b), len(b[len(b)-1]), blockOps+blockOps/2)
	}
	if got := g.latency(50); got != 2 {
		t.Errorf("latency(50) = %v, want the median of the block medians, 2", got)
	}
	short := region{rounds: []roundStat{{ops: 3}}, lat: []float64{5, 1, 3}}
	if b := short.blocks(); len(b) != 1 || len(b[0]) != 3 {
		t.Errorf("a region shorter than a block: blocks %v, want one of all 3", b)
	}
	if got := short.latency(90); got != 5 {
		t.Errorf("short latency(90) = %v, want 5", got)
	}
}
