package main

// metricDef is one metric as BENCHMARK.json lists it. For a per-layer
// metric, Moves records which end-to-end metric it should move and on
// which workload, and where its effect should be about nil.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports all of them; an operation is a cell on offline-grid and a
// request on serve-mixed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine_mrefs_per_s", Unit: "Mrefs/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower"},
}

// benchSchemes are the engines the workloads run, one per-layer metric
// each.
var benchSchemes = []string{"dir1nb", "wti", "dir0b", "dragon", "dir1b", "dir2nb", "dirnnb", "codedset"}

// perLayer are the metrics of single layers, printed by the traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"tracegen.mrefs_per_s", "Mrefs/s", "higher", "ops_per_s, engine_mrefs_per_s on offline-grid; ~nil on serve-mixed hits"},
		{"blockid.intern_ns_per_ref", "ns", "lower", "engine_mrefs_per_s on offline-grid; latency of fresh cells on serve-mixed"},
		{"blockid.new_us", "us", "lower", "latency of fresh cells on serve-mixed; ~nil on offline-grid"},
	}
	for _, s := range benchSchemes {
		defs = append(defs, metricDef{"coherence." + s + ".ns_per_ref", "ns", "lower", "engine_mrefs_per_s on offline-grid; latency of fresh cells on serve-mixed; ~nil on hits"})
	}
	defs = append(defs, []metricDef{
		{"coherence.new_us", "us", "lower", "latency of fresh cells on serve-mixed; ~nil on offline-grid"},
		{"sim.single.mrefs_per_s", "Mrefs/s", "higher", "engine_mrefs_per_s on offline-grid; ~nil on serve-mixed hits"},
		{"sim.lockstep.mrefs_per_s", "Mrefs/s", "higher", "engine_mrefs_per_s on offline-grid; ~nil on serve-mixed hits"},
		{"sim.allocs_per_run", "count", "lower", "latency_p50_ms on serve-mixed (fresh cells); ~nil on offline-grid"},
		{"sim.bytes_per_run", "B", "lower", "latency_p50_ms on serve-mixed (fresh cells); ~nil on offline-grid"},
		{"runner.busy_frac", "ratio", "higher", "ops_per_s on offline-grid (tail idle when cells are uneven); 0 on serve-mixed (no runner pool of the benchmark)"},
		{"runner.retries", "count", "lower", "ops_per_s on offline-grid"},
		{"runner.failures", "count", "lower", "error count on every workload"},
		{"spec.decode_us", "us", "lower", "latency_p50_ms, latency_p90_ms on serve-mixed; ~nil on offline-grid"},
		{"spec.validate_us", "us", "lower", "latency_p50_ms, latency_p90_ms on serve-mixed; ~nil on offline-grid"},
		{"spec.canonical_us", "us", "lower", "latency_p50_ms, latency_p90_ms on serve-mixed (hits and fresh); ~nil on offline-grid"},
		{"spec.hash_us", "us", "lower", "latency_p50_ms, latency_p90_ms on serve-mixed (hits and fresh); ~nil on offline-grid"},
		{"spec.allocs_per_hash", "count", "lower", "latency_p90_ms on serve-mixed via GC; ~nil on offline-grid"},
		{"spec.cell_doc_encode_us", "us", "lower", "latency of fresh cells on serve-mixed; ~nil on offline-grid"},
		{"server.admit_wait_p50_ms", "ms", "lower", "latency_p90_ms on serve-mixed"},
		{"server.queue_depth_max", "count", "lower", "latency_p90_ms on serve-mixed"},
		{"server.cache_hit_ratio", "ratio", "higher", "latency_p50_ms on serve-mixed (share of requests answered without simulating); base is server.requests"},
		{"server.requests", "count", "higher", "ops_per_s on serve-mixed (the base of cache_hit_ratio)"},
		{"server.rejected", "count", "lower", "error count on serve-mixed (429 and 503 answers the clients got; 0 while the queue fits every client)"},
		{"server.fresh_p50_ms", "ms", "lower", "latency_p50_ms on serve-mixed (requests that simulate)"},
		{"server.hit_p50_ms", "ms", "lower", "latency_p50_ms on serve-mixed (repeats, answered from the retained finished job, or the result cache once the job is gone)"},
		{"atomicio.journal_append_us", "us", "lower", "ops_per_s of a daemon with a state dir; ~nil on both workloads (no state dir)"},
		{"atomicio.writefile_us", "us", "lower", "ops_per_s of a daemon with a state dir; ~nil on both workloads (no state dir)"},
		{"cluster.route_ns", "ns", "lower", "none on these workloads (no fleet); the per-cell routing cost of cmd/sweep -cluster"},
		{"runtime.gc_cpu_frac", "ratio", "lower", "latency_p50_ms, latency_p90_ms on serve-mixed mostly"},
		{"runtime.alloc_bytes_per_op", "B", "lower", "latency_p90_ms on serve-mixed mostly"},
		{"runtime.allocs_per_op", "count", "lower", "latency_p90_ms on serve-mixed mostly"},
		{"runtime.mem_peak_mb", "MB", "lower", "none directly; peak Go heap of the untraced quarters (on serve-mixed it grows with requests, as the daemon keeps every finished job)"},
		{"trace.overhead_frac", "ratio", "lower", "none; checks that the traced quarters are representative"},
		{"trace.unaccounted_frac", "ratio", "lower", "none; checks that self times account for latency_p50_ms"},
	}...)
	return defs
}()
