// Command dirbench is the repository's benchmark. It runs one of two
// workloads for a fixed time, checks every output against an oracle, and
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	offline-grid  the paper's trace × scheme grid through spec cells and the
//	              runner pool, as cmd/sweep runs it
//	serve-mixed   one in-process dirsimd daemon under a closed loop of
//	              clients posting small cells, 40% of them repeats
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// alternates untraced and traced quarters, spans are recorded around
// every layer call the benchmark makes, and the per-layer metrics are
// printed with a self-time table. -runs N is the steadiness mode: it runs
// the workload N times in fresh processes on consecutive seeds and prints
// each run's values with their median, quartiles and IQR.
//
// Usage (from the module root):
//
//	bash dirbench/run.sh --workload offline-grid --seed 1 --seconds 40 --trace 0
//	bash dirbench/run.sh --workload serve-mixed --seconds 40 --runs 5
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the golden digests are recorded at.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dirbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	runs := fs.Int("runs", 0, "steadiness mode: run the workload this many times in fresh processes, seeds seed, seed+1, …")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for daemon state, scratch files and the span file")
	tracecheck := fs.String("tracecheck", "", "with -trace 1, a cmd/tracecheck binary that must accept the span file (empty = skip that check)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "dirbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "dirbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *runs > 0 {
		return steadiness(stdout, stderr, *workload, *seed, *seconds, *traceFlag, *runs, *workDir, *tracecheck)
	}
	cfg := config{
		workload:   *workload,
		seed:       *seed,
		duration:   time.Duration(*seconds * float64(time.Second)),
		traced:     *traceFlag == 1,
		workDir:    *workDir,
		tracecheck: *tracecheck,
		sizes:      defaultSizes(),
	}
	ctx, cancel := context.WithTimeoutCause(context.Background(), cfg.duration+runSlack,
		fmt.Errorf("the run took longer than -seconds plus %v", runSlack))
	defer cancel()
	defer watchdog(cfg.duration+runSlack+killGrace, memLimit(), stderr)()
	rep, err := execute(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "dirbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "dirbench: oracle: %s\n", p)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "dirbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runSlack is how long a run may take beyond its timed phase — setups,
// the output check, the layer microbenchmarks and shutdown — before it
// gives up with an error. At -seconds 40 a run ends within 160 s.
const runSlack = 120 * time.Second

// killGrace is how long a run that spent its budget has to notice and end
// on its own before the watchdog ends the process.
const killGrace = 10 * time.Second

// watchdog ends the process with exit code 1 and a goroutine dump on
// stderr once the run has lasted hard, or once the Go heap holds more
// than limit bytes, so that a stuck or runaway run fails instead of
// running on or exhausting the machine's memory. The returned func stops
// it.
func watchdog(hard time.Duration, limit uint64, stderr io.Writer) (stop func()) {
	done := make(chan struct{})
	go func() {
		deadline := time.NewTimer(hard)
		defer deadline.Stop()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var why string
		for why == "" {
			select {
			case <-done:
				return
			case <-deadline.C:
				why = fmt.Sprintf("the run did not end within %v", hard)
			case <-tick.C:
				if h := heapObjects(); h > limit {
					why = fmt.Sprintf("the Go heap holds %.0f MB, above the limit of %.0f MB (half the memory of the machine)", float64(h)/1e6, float64(limit)/1e6)
				}
			}
		}
		fmt.Fprintf(stderr, "dirbench: watchdog: %s; goroutines:\n", why)
		_ = pprof.Lookup("goroutine").WriteTo(stderr, 1) // best effort: the process exits next
		os.Exit(1)
	}()
	return func() { close(done) }
}

// memLimit is half the memory the process may use: the machine's
// MemTotal, or the cgroup's memory.max where that is lower.
func memLimit() uint64 {
	total := uint64(8) << 30
	if data, err := os.ReadFile("/proc/meminfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "MemTotal:" {
				if kb, err := strconv.ParseUint(f[1], 10, 64); err == nil {
					total = kb << 10
				}
			}
		}
	}
	if data, err := os.ReadFile("/sys/fs/cgroup/memory.max"); err == nil {
		if v, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64); err == nil && v < total {
			total = v
		}
	}
	return total / 2
}

// config is one run's parameters.
type config struct {
	workload   string
	seed       int64
	duration   time.Duration
	traced     bool
	workDir    string
	tracecheck string
	sizes      sizes
}

// sizes fixes how much work each operation does. Tests shrink them; the
// golden digests hold only at defaultSizes.
type sizes struct {
	GridRefs     int `json:"grid_refs"`
	ServeMinRefs int `json:"serve_min_refs"`
	ServeMaxRefs int `json:"serve_max_refs"`
	Setups       int `json:"setups"`
	// LayerMillis is how long each layer microbenchmark loops at least.
	LayerMillis int `json:"layer_timing_ms"`
}

func defaultSizes() sizes {
	return sizes{
		GridRefs:     1_000_000,
		ServeMinRefs: 1_000,
		ServeMaxRefs: 5_000,
		Setups:       101,
		LayerMillis:  100,
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a finished run: the result line plus the oracle's complaints.
type report struct {
	result   result
	problems []string
}

// stamp identifies the machine, toolchain, code and inputs a result came
// from, so that two results are only compared like with like.
type stamp struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Traced     bool        `json:"traced"`
	CPUModel   string      `json:"cpu_model"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"git_commit"`
	Sizes      sizes       `json:"sizes"`
	Serve      *serveStamp `json:"serve,omitempty"`
}

// serveStamp is serve-mixed's closed-loop shape on this machine.
type serveStamp struct {
	Clients    int `json:"clients"`
	Executors  int `json:"executors"`
	QueueDepth int `json:"queue_depth"`
	Cache      int `json:"cache_entries"`
	Recent     int `json:"repeat_window"`
}

func newStamp(cfg config) stamp {
	st := stamp{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.duration.Seconds(),
		Traced:     cfg.traced,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Sizes:      cfg.sizes,
	}
	if cfg.workload == "serve-mixed" {
		n, dc, recent := serveShape()
		st.Serve = &serveStamp{Clients: n, Executors: dc.Executors, QueueDepth: dc.QueueDepth, Cache: dc.CacheEntries, Recent: recent}
	}
	return st
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, as the go tool
// stamps it; a build outside a git checkout reports "unknown".
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// execute runs one workload and prints the stamp and the human-readable
// metric lines; the caller prints the result line.
func execute(ctx context.Context, cfg config, out io.Writer) (*report, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	st, err := json.Marshal(newStamp(cfg))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "stamp %s\n", st)
	o, err := measure(ctx, cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{problems: o.problems}
	rep.result = result{
		Correct:   o.correct(),
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		printSelfTimes(out, o)
	}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rep.result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "metric %-34s %14.6g %-8s %s\n", d.Name, v, d.Unit, d.Moves)
	}
	fmt.Fprintf(out, "error_frac %.6g (failed %d of %d attempted operations)\n",
		float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	for _, n := range o.notes {
		fmt.Fprintf(out, "note %s\n", n)
	}
	return rep, nil
}

// steadiness runs the workload n times in fresh processes and summarises
// every metric the runs print.
func steadiness(stdout, stderr io.Writer, workload string, seed int64, seconds float64, traceFlag, n int, workDir, tracecheck string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "dirbench: %v\n", err)
		return 1
	}
	var results []result
	for i := 0; i < n; i++ {
		args := []string{
			"-workload", workload,
			"-seed", fmt.Sprint(seed + int64(i)),
			"-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(traceFlag),
			"-workdir", workDir,
			"-tracecheck", tracecheck,
		}
		r, rssMB, err := runChild(self, args, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "dirbench: run %d: %v\n", i, err)
			return 1
		}
		results = append(results, r)
		line, _ := json.Marshal(r)
		fmt.Fprintf(stdout, "run %d seed %d max_rss_mb %.1f %s\n", i, seed+int64(i), rssMB, line)
	}
	names := make([]string, 0, len(results[0].Metrics))
	for name := range results[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	agg := result{Correct: true, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "%-34s %12s %12s %12s %10s\n", "metric", "q1", "median", "q3", "iqr/med")
	for _, name := range names {
		vals := make([]float64, len(results))
		for i, r := range results {
			vals[i] = r.Metrics[name].Value
		}
		q1, med, q3 := quartiles(vals)
		spread := 0.0
		if m := math.Abs(med); m > 0 {
			spread = (q3 - q1) / m
		}
		fmt.Fprintf(stdout, "%-34s %12.6g %12.6g %12.6g %10.4f\n", name, q1, med, q3, spread)
		agg.Metrics[name] = metricValue{Value: med, Unit: results[0].Metrics[name].Unit}
	}
	for _, r := range results {
		agg.Correct = agg.Correct && r.Correct
		agg.Attempted += r.Attempted
		agg.Failed += r.Failed
	}
	line, err := json.Marshal(agg)
	if err != nil {
		fmt.Fprintf(stderr, "dirbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runChild runs one benchmark process and parses its result line. It
// also returns the process's peak resident set in MB.
func runChild(self string, args []string, stderr io.Writer) (result, float64, error) {
	var r result
	var out strings.Builder
	cmd := exec.Command(self, args...)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	err := cmd.Run()
	rssMB := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	if err != nil {
		return r, rssMB, fmt.Errorf("%w (peak resident set %.1f MB)", err, rssMB)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, rssMB, fmt.Errorf("parsing result line: %w", err)
	}
	if len(r.Metrics) == 0 {
		return r, rssMB, errors.New("result line has no metrics")
	}
	return r, rssMB, nil
}
