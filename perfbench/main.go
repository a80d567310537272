// Command perfbench is the repository's benchmark: one seeded workload
// per run, driven from this single process, every result checked, and
// every metric printed by name with its unit.
//
//	perfbench --workload compute|serve|build --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a traced run (store and index
// wrappers, spans around each layer call, a CPU profile folded by
// package). The last line of standard output is the result as one JSON
// object. See README.md for the metric definitions.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

var benchmarks = map[string]benchmark{
	"compute": computeWorkload{},
	"serve":   defaultServe(),
	"build":   buildWorkload{},
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 9

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is what a run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var o options
	var trace int
	flags.StringVar(&o.workload, "workload", "", "workload: compute, serve or build")
	flags.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flags.Float64Var(&o.seconds, "seconds", 10, "length of the timed region in seconds")
	flags.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flags.StringVar(&o.spans, "spans", "", "traced runs: span file (default .bench_build/perfbench/spans-<workload>-<seed>.tsv)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	b, ok := benchmarks[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload compute|serve|build, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.tsv", o.workload, o.seed))
	}

	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	e := env{seed: o.seed, procs: procs}

	var res result
	var info map[string]any
	var err error
	if o.trace {
		res, info, err = measureLayers(b, e, o)
	} else {
		res, info, err = measureEndToEnd(b, e, o)
	}
	if err != nil && res.Metrics == nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	report(stdout, o, procs, res, info)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// setupAll sets up reps times afresh, timing each, and returns
// the last fixture (the others are closed) with the set-up times and
// any cold build times a build fixture measured.
func setupAll(b benchmark, e env, reps int) (fixture, []float64, []float64, error) {
	var fx fixture
	var secs, cold []float64
	for i := 0; i < reps; i++ {
		if fx != nil {
			fx.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		fx, err = b.setup(e)
		secs = append(secs, time.Since(start).Seconds())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if bf, ok := fx.(*buildFixture); ok {
			cold = append(cold, bf.coldMS)
		}
	}
	return fx, secs, cold, nil
}

// measureEndToEnd is the untraced run.
func measureEndToEnd(b benchmark, e env, o options) (result, map[string]any, error) {
	fx, setups, cold, err := setupAll(b, e, setupReps)
	if err != nil {
		return result{}, nil, err
	}
	defer fx.close()
	runtime.GC()
	g := runRegion(fx, nil, o.seconds, 0)
	if g.err == nil {
		g.err = fx.verify()
	}
	lat, blocks := g.lat, g.blocks()
	m := map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     median(g.perRound(func(r roundStat) float64 { return float64(r.ops) / r.wall.Seconds() })),
		"op_p50_ms":     g.latency(50),
		"op_p90_ms":     g.latency(90),
		"cpu_ms_per_op": median(g.perRound(func(r roundStat) float64 { return per(float64(r.cpu)/1e6, r.ops) })),
		"peak_mem_mb":   median(g.perRound(func(r roundStat) float64 { return float64(r.peakMem) / (1 << 20) })),
	}
	info := map[string]any{
		"setup_s_samples":         setups,
		"rounds":                  len(g.rounds),
		"wall_s":                  g.wall.Seconds(),
		"mean_ops_per_s":          float64(g.ops) / g.wall.Seconds(),
		"mean_cpu_ms_per_op":      g.cpuMsPerOp(),
		"latency_samples":         len(lat),
		"latency_blocks":          len(blocks),
		"p90_samples_above":       len(lat) - int(math.Ceil(0.9*float64(len(lat)))),
		"block_p90_samples_above": len(blocks[0]) - int(math.Ceil(0.9*float64(len(blocks[0])))),
		"pooled_op_p50_ms":        percentile(lat, 50),
		"pooled_op_p90_ms":        percentile(lat, 90),
		"fail_ratio":              per(float64(g.failed), g.ops),
	}
	counts := fx.layers(&g)
	if len(cold) > 0 {
		info["cold_build_ms"] = median(cold)
		info["noop_build_ms"] = counts["detmake.noop_build_ms"]
	}
	for _, k := range []string{"kernel.vt_per_op", "kernel.insns_per_op", "castore.dup_put_ratio",
		"detmake.executed_per_op", "detmake.hit_ratio", "detmake.waves_per_op",
		"dsched.rounds_per_op", "dsched.sync_skip_ratio", "dsched.tables_resynced_per_op",
		"dsched.pages_compared_per_op", "serve.evictions_per_op", "serve.resumes_per_op"} {
		if v, ok := counts[k]; ok {
			info[k] = v
		}
	}
	return finish(g, m, endToEnd), info, g.err
}

// measureLayers is the traced run: an untraced reference region half
// as long (for the tracing overhead), then a traced one with the
// wrappers, spans and a CPU profile.
func measureLayers(b benchmark, e env, o options) (result, map[string]any, error) {
	ref, _, _, err := setupAll(b, e, 1)
	if err != nil {
		return result{}, nil, err
	}
	runtime.GC()
	g0 := runRegion(ref, nil, o.seconds/2, 0)
	if g0.err == nil {
		g0.err = ref.verify()
	}
	ref.close()
	if g0.err != nil {
		return finish(g0, map[string]float64{}, perLayer), nil, g0.err
	}

	tr := newTracer()
	e.tr = tr
	fx, _, cold, err := setupAll(b, e, 1)
	if err != nil {
		return result{}, nil, err
	}
	defer fx.close()
	runtime.GC()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, nil, err
	}
	g := runRegion(fx, tr, o.seconds, 0)
	pprof.StopCPUProfile()
	if g.err == nil {
		g.err = fx.verify()
	}

	m := fx.layers(&g)
	if len(cold) > 0 {
		m["detmake.cold_build_ms"] = median(cold)
	}
	traced := g.cpuMsPerOp()
	m["trace.cpu_ms_per_op"] = traced
	m["trace.overhead_ratio"] = traced / g0.cpuMsPerOp()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, nil, err
	}
	byLayer := foldLayers(samples)
	var total int64
	for _, ns := range byLayer {
		total += ns
	}
	// The profile gives each layer's share; getrusage gives the total,
	// so the layers sum to the traced cpu_ms_per_op.
	for _, l := range layers {
		if total > 0 {
			m[l+".cpu_ms_per_op"] = traced * float64(byLayer[l]) / float64(total)
		} else if l == "gc" {
			m[l+".cpu_ms_per_op"] = traced
		}
	}
	info := map[string]any{
		"rounds":          len(g.rounds),
		"latency_samples": len(g.lat),
		"profile_samples": len(samples),
		"spans":           len(tr.spans),
		"reference_ops":   g0.ops,
	}
	if err := tr.write(o.spans); err != nil {
		return result{}, nil, fmt.Errorf("writing spans: %w", err)
	}
	info["span_file"] = o.spans
	return finish(g, m, perLayer), info, g.err
}

// finish assembles the printed result: exactly the metrics in want,
// zero where a workload has no value for one.
func finish(g region, m map[string]float64, want []metric) result {
	res := result{
		Correct:   g.err == nil,
		Attempted: g.ops,
		Failed:    g.failed,
		Metrics:   make(map[string]value, len(want)),
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the op that could not complete
		res.Failed = 1
	}
	for _, w := range want {
		v := m[w.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[w.name] = value{Value: v, Unit: w.unit}
	}
	return res
}

// report prints the human-readable lines, the host metadata, and last
// the JSON result.
func report(w io.Writer, o options, procs int, res result, info map[string]any) {
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, m := range want {
		fmt.Fprintf(w, "%-34s %14.6g %-8s (%s is better)\n", m.name, res.Metrics[m.name].Value, m.unit, m.better)
	}
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "info %s = %v\n", k, info[k])
	}
	commit, digest := sourceVersion()
	host, _ := json.Marshal(map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": procs, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"commit": commit, "source_sha256": digest,
		"latency_samples": info["latency_samples"], "latency_blocks": info["latency_blocks"],
	})
	fmt.Fprintf(w, "host %s\n", host)
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// sourceVersion returns the VCS revision stamped into the binary, if
// it was built inside a repository, and a digest of the Go sources
// under the working directory, which identifies the code either way.
func sourceVersion() (commit, digest string) {
	commit = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
		return nil
	})
	return commit, hex.EncodeToString(h.Sum(nil))
}
