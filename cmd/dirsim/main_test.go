package main

import (
	"compress/gzip"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dirsim/internal/trace"
)

func TestRunGeneratedWorkload(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), &out, options{workload: "pero", refs: 20000, schemes: "dir0b,dragon", cpus: 4, events: true, fanout: true})
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"bus cycles per memory reference", "Dir0B", "Dragon", "Table 4", "Figure 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunCSVMode(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), &out, options{workload: "pero", refs: 10000, schemes: "dir0b", cpus: 4, csvOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "scheme,refs,transactions") {
		t.Errorf("CSV header missing: %q", out.String()[:60])
	}
}

func TestRunTraceFileAndGzip(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "t.trc")
	zipped := filepath.Join(dir, "t.trc.gz")

	refs := trace.Slice{
		{CPU: 0, Kind: trace.Read, Addr: 0x10},
		{CPU: 1, Kind: trace.Read, Addr: 0x10},
		{CPU: 0, Kind: trace.Write, Addr: 0x10},
	}
	f, err := os.Create(plain)
	if err != nil {
		t.Fatal(err)
	}
	bw := trace.NewBinaryWriter(f)
	for _, r := range refs {
		if err := bw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	zf, err := os.Create(zipped)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(zf)
	bw = trace.NewBinaryWriter(zw)
	for _, r := range refs {
		if err := bw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := zf.Close(); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{plain, zipped} {
		var out strings.Builder
		if err := run(context.Background(), &out, options{traceFile: path, schemes: "dir0b", cpus: 4}); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !strings.Contains(out.String(), "Dir0B") {
			t.Errorf("%s: missing results", path)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), &out, options{workload: "nope", refs: 100, schemes: "dir0b", cpus: 4}); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(context.Background(), &out, options{workload: "pero", refs: 100, schemes: "bogus", cpus: 4}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run(context.Background(), &out, options{workload: "pero", refs: 100, schemes: "dir0b", cpus: 4, finite: "badgeom"}); err == nil {
		t.Error("bad -finite accepted")
	}
	if err := run(context.Background(), &out, options{traceFile: "/does/not/exist.trc", schemes: "dir0b", cpus: 4}); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestRunFiniteAndFilters(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), &out, options{workload: "pops", refs: 20000, schemes: "dir0b", cpus: 4, finite: "16x2", dropLocks: true, byProcess: true, q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Dir0B") {
		t.Error("missing results")
	}
}

// TestRunProgress exercises the -progress path: the progress writer must
// see at least one throughput line, stdout stays clean of it, and the run
// reports the same table as one without progress.
func TestRunProgress(t *testing.T) {
	var out, prog strings.Builder
	err := run(context.Background(), &out, options{
		workload: "pero", refs: 20000, schemes: "dir0b,dragon", cpus: 4,
		progress: true, progressW: &prog,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "refs") {
		t.Errorf("progress output missing: %q", prog.String())
	}
	if strings.Contains(out.String(), "refs/s") {
		t.Error("progress leaked into stdout")
	}
	var plain strings.Builder
	if err := run(context.Background(), &plain, options{
		workload: "pero", refs: 20000, schemes: "dir0b,dragon", cpus: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if out.String() != plain.String() {
		t.Error("progress run's table differs from a plain run's")
	}
}

// A context that is already cancelled must abort the run with its error.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, &out, options{workload: "pero", refs: 100_000, schemes: "dir0b", cpus: 4})
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("err = %v, want context cancellation", err)
	}
}

func TestRunNUMAAndLatency(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), &out, options{workload: "pero", refs: 20000, schemes: "dirnnb",
		cpus: 4, latency: true, numaNodes: 4, numaHome: "firsttouch"})
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"average memory access time", "distributed full-map directory", "critical hops/ref", "first-touch"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if err := run(context.Background(), &out, options{workload: "pero", refs: 100, schemes: "dir0b",
		cpus: 4, numaNodes: 4, numaHome: "bogus"}); err == nil {
		t.Error("bad -home accepted")
	}
}
