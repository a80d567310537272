package main

// metric names one reported value. The lists below are the benchmark's
// contract with BENCHMARK.json: a run with tracing off prints exactly
// the endToEnd metrics, a traced run exactly the perLayer ones, every
// workload all of them (a metric that does not apply to a workload
// reads 0 there).
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_mem_mb", "MB", "lower"},
}

// layers are the repository's modules, the units CPU time is charged
// to. See profile.go for how a stack is mapped to one of them.
var layers = []string{
	"workload", "core", "vm", "kernel", "dsched", "fs",
	"castore", "serve", "detmake", "image", "session", "gc",
}

var perLayer = func() []metric {
	var m []metric
	for _, l := range layers {
		m = append(m, metric{l + ".cpu_ms_per_op", "ms", "lower"})
	}
	return append(m,
		metric{"castore.put_per_op", "1/op", "lower"},
		metric{"castore.put_kb_per_op", "KB/op", "lower"},
		metric{"castore.put_ms_per_op", "ms", "lower"},
		metric{"castore.dup_put_ratio", "ratio", "lower"},
		metric{"castore.get_per_op", "1/op", "lower"},
		metric{"castore.get_kb_per_op", "KB/op", "lower"},
		metric{"castore.get_ms_per_op", "ms", "lower"},
		metric{"castore.stored_kb_per_op", "KB/op", "lower"},

		metric{"serve.slice_ms", "ms", "lower"},
		metric{"serve.resume_slice_ms", "ms", "lower"},
		metric{"serve.queue_wait_ms", "ms", "lower"},
		metric{"serve.evictions_per_op", "1/op", "lower"},
		metric{"serve.resumes_per_op", "1/op", "lower"},
		metric{"serve.resident_peak_pages", "pages", "lower"},
		metric{"serve.retries_per_op", "1/op", "lower"},

		metric{"detmake.executed_per_op", "1/op", "lower"},
		metric{"detmake.hit_ratio", "ratio", "higher"},
		metric{"detmake.fetched_kb_per_op", "KB/op", "lower"},
		metric{"detmake.fallbacks_per_op", "1/op", "lower"},
		metric{"detmake.waves_per_op", "1/op", "lower"},
		metric{"detmake.index_ms_per_op", "ms", "lower"},
		metric{"detmake.cold_build_ms", "ms", "lower"},
		metric{"detmake.noop_build_ms", "ms", "lower"},

		metric{"dsched.rounds_per_op", "1/op", "lower"},
		metric{"dsched.sync_skip_ratio", "ratio", "higher"},
		metric{"dsched.tables_resynced_per_op", "1/op", "lower"},
		metric{"dsched.pages_compared_per_op", "1/op", "lower"},

		metric{"kernel.vt_per_op", "ticks/op", "lower"},
		metric{"kernel.insns_per_op", "1/op", "lower"},

		metric{"trace.cpu_ms_per_op", "ms", "lower"},
		metric{"trace.overhead_ratio", "ratio", "lower"},
	)
}()
