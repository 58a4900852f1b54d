package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dirsim/internal/coherence"
	"dirsim/internal/flight"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

// endlessReader yields an unbounded reference stream over a small block
// set, so only cancellation can end the run.
type endlessReader struct{ n uint64 }

func (r *endlessReader) Next() (trace.Ref, error) {
	r.n++
	kind := trace.Read
	if r.n%5 == 0 {
		kind = trace.Write
	}
	return trace.Ref{CPU: uint8(r.n % 4), Kind: kind, Addr: (r.n % 512) * 16}, nil
}

// streamReader hides a reader's concrete type, so the driver takes its
// streaming path (chunks refilled through Next) even over an in-memory
// trace.
type streamReader struct{ trace.Reader }

// addressOnly hides an engine's IndexedEngine methods, so the driver must
// use the address-keyed Access fallback for it.
type addressOnly struct{ coherence.Engine }

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (or a deadline passes), so leaks surface as failures without
// flaking on scheduler timing.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// Cancelling mid-trace must end the run within a chunk, return the
// context's error, and leave no goroutines behind.
func TestRunCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var seen int
	opts := Options{OnProgress: func(n int) {
		seen += n
		if seen >= 3*batchRefs {
			cancel()
		}
	}}
	_, err := RunSchemes(ctx, &endlessReader{}, []string{"dir0b", "dragon", "wti", "dir1nb"},
		coherence.Config{Caches: 4}, opts)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The driver checks the context before every chunk, so it applies no
	// reference after the chunk whose progress call cancelled.
	if seen != 3*batchRefs {
		t.Errorf("%d refs applied, want the run to stop at the cancel (%d)", seen, 3*batchRefs)
	}
	waitForGoroutines(t, baseline)
}

// A context that expires mid-stream must also unwind cleanly with every
// engine in the run.
func TestRunDeadline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := RunSchemes(ctx, &endlessReader{}, coherence.EngineNames(),
		coherence.Config{Caches: 4}, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	waitForGoroutines(t, baseline)
}

// A decode error (trace needs more caches than the engines have) must
// end the run with the same error on the slice and streaming paths,
// leaking nothing.
func TestRunDecodeError(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tr := trace.Slice{{CPU: 1, Kind: trace.Read, Addr: 1}, {CPU: 9, Kind: trace.Read, Addr: 1}}
	for name, rd := range map[string]trace.Reader{
		"slice":     trace.NewSliceReader(tr),
		"streaming": streamReader{trace.NewSliceReader(tr)},
	} {
		_, err := RunSchemes(context.Background(), rd, []string{"dir0b", "wti"},
			coherence.Config{Caches: 4}, Options{})
		if err == nil || !strings.Contains(err.Error(), "needs cache 9") {
			t.Errorf("%s: err = %v, want the out-of-range cache reported", name, err)
		}
	}
	waitForGoroutines(t, baseline)
}

// OnProgress is called once per chunk, and its counts sum to the trace
// length, on the slice and streaming paths alike.
func TestOnProgressCounts(t *testing.T) {
	tr, err := tracegen.Generate(tracegen.PERO(10_000))
	if err != nil {
		t.Fatal(err)
	}
	for name, rd := range map[string]trace.Reader{
		"slice":     trace.NewSliceReader(tr),
		"streaming": streamReader{trace.NewSliceReader(tr)},
	} {
		var total, calls int
		_, err := RunSchemes(context.Background(), rd, []string{"dir0b", "wti"},
			coherence.Config{Caches: 4},
			Options{OnProgress: func(n int) { total += n; calls++ }})
		if err != nil {
			t.Fatal(err)
		}
		if total != len(tr) {
			t.Errorf("%s: progress total %d, want %d", name, total, len(tr))
		}
		if want := (len(tr) + batchRefs - 1) / batchRefs; calls != want {
			t.Errorf("%s: %d progress calls, want one per chunk (%d)", name, calls, want)
		}
	}
}

// An engine that only offers Access must run beside id-indexed engines in
// one lockstep run and end with exactly their Stats: untraced, traced at
// the densest sampling with spans, and with the warm-up boundary on,
// just before and just after a chunk edge.
func TestAccessFallbackMatchesIndexed(t *testing.T) {
	tr, err := tracegen.Generate(tracegen.POPS(20_000))
	if err != nil {
		t.Fatal(err)
	}
	schemes := []string{"dir0b", "dir1nb", "dragon", "wti", "dir1b"}
	cfg := coherence.Config{Caches: 4}
	for _, tc := range []struct {
		name string
		opts func() Options
	}{
		{"untraced", func() Options { return Options{} }},
		{"traced-sample1", func() Options {
			return Options{Recorder: flight.New(flight.Options{Sample: 1, Spans: true})}
		}},
		{"warmup-chunk-1", func() Options { return Options{WarmupRefs: batchRefs - 1} }},
		{"warmup-chunk", func() Options { return Options{WarmupRefs: batchRefs} }},
		{"warmup-chunk+1", func() Options { return Options{WarmupRefs: batchRefs + 1} }},
	} {
		engines := make([]coherence.Engine, 0, 2*len(schemes))
		for _, wrap := range []bool{false, true} {
			for _, s := range schemes {
				e, err := coherence.NewByName(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if wrap {
					e = addressOnly{e}
				}
				engines = append(engines, e)
			}
		}
		opts := tc.opts()
		plain, err := RunSchemes(context.Background(), trace.NewSliceReader(tr), schemes, cfg,
			Options{WarmupRefs: opts.WarmupRefs})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), trace.NewSliceReader(tr), engines, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, ok := engines[len(schemes)].(coherence.IndexedEngine); ok {
			t.Fatal("addressOnly still exposes IndexedEngine")
		}
		for i, s := range schemes {
			indexed, fallback := res[i].Stats, res[len(schemes)+i].Stats
			if !reflect.DeepEqual(fallback, indexed) {
				t.Errorf("%s: %s via Access differs from AccessID", tc.name, s)
			}
			if !reflect.DeepEqual(indexed, plain[i].Stats) {
				t.Errorf("%s: %s differs from a run without the fallback engines", tc.name, s)
			}
		}
		if opts.Recorder != nil && len(opts.Recorder.Events()) == 0 {
			t.Errorf("%s: recorder captured no events", tc.name)
		}
	}
}
