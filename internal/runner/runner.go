// Package runner is the shared experiment-orchestration layer. The
// paper's methodology is embarrassingly parallel — independent
// (workload × machine size × scheme × seed) cells — so every run path
// (cmd/paper's tables and figures, cmd/sweep's grid, internal/study's
// replications) describes its work as a list of Jobs and hands them to
// one bounded, deterministic worker pool with context cancellation,
// aggregated errors, ordered result delivery, and obs instrumentation.
//
// The pool is also the failure boundary: a panicking job becomes an
// error carrying its identity (never a dead sweep), transient errors are
// retried on a deterministic exponential-backoff-with-jitter schedule,
// and a per-job deadline and stall watchdog bound how long any one cell
// can hold a worker. See resilience.go.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dirsim/internal/coherence"
	"dirsim/internal/flight"
	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
)

// Job is one independent simulation cell: a trace source and the scheme
// set to run over it.
type Job struct {
	// Label identifies the job in errors and progress output.
	Label string
	// Source opens the job's trace. It is called once per attempt, on
	// the worker goroutine that runs the job, so generators need not be
	// safe for concurrent use across jobs — and a retried attempt starts
	// from a fresh reader.
	Source func() (trace.Reader, error)
	// Schemes, Config and Opts parameterise sim.RunSchemes.
	Schemes []string
	Config  coherence.Config
	Opts    sim.Options
}

// Options configures a pool run.
type Options struct {
	// Workers bounds the number of concurrently running jobs; values
	// below 1 mean 1 (sequential). Workers are fixed goroutines that
	// claim jobs in index order, so no run ever spawns more goroutines
	// than Workers (each job's simulation runs on the worker that claimed
	// it).
	Workers int
	// Metrics, when non-nil, accumulates refs simulated, jobs done/total,
	// retries/failures/panics and per-engine tallies across the run.
	Metrics *obs.Metrics
	// OnResult, when non-nil, is called once per successful job in job
	// index order (calls are serialised and never run concurrently),
	// enabling streaming consumption of long grids.
	OnResult func(index int, rs []sim.Result)
	// OnError, when non-nil, is called once per failed job with its
	// *JobError, interleaved with OnResult in the same serialised job
	// index order — the streaming view a failure manifest is built from.
	OnError func(index int, err error)
	// Progress, when non-nil, is called after every metrics update — at
	// reference-batch granularity — from whichever worker made the
	// update. It must be cheap; throttle rendering in the caller (see
	// obs.Throttle).
	Progress func()
	// Retry bounds how transient job failures are retried. The zero
	// value retries nothing.
	Retry RetryPolicy
	// Sleep, when non-nil, is called with each backoff delay before a
	// retry. Internal packages stay clock-free, so the cmd layer passes
	// time.Sleep; nil applies the (still deterministic) schedule with no
	// actual waiting — what tests want.
	Sleep func(time.Duration)
	// JobTimeout, when positive, bounds each attempt's wall-clock time;
	// an attempt exceeding it fails with ErrJobDeadline.
	JobTimeout time.Duration
	// StallTimeout, when positive, arms a per-attempt watchdog that
	// fails the attempt with ErrStalled when no reference batch
	// completes within the interval — catching wedged trace sources that
	// a generous JobTimeout would let hold a worker. It must comfortably
	// exceed the time one reference batch takes.
	StallTimeout time.Duration
	// TransientFault, when non-nil, is consulted before each attempt of
	// each job with (job index, attempt) and any returned error fails
	// the attempt. It exists to inject transient infrastructure failures
	// deterministically — fault-injection campaigns and retry tests wrap
	// errors with Transient so the retry path is exercised end to end.
	TransientFault func(index, attempt int) error
	// TraceFor, when non-nil, is consulted at the start of each attempt
	// with (job index, attempt) and may return a flight recorder for the
	// attempt's simulation to record into (nil leaves the attempt
	// untraced). Each attempt should get its own recorder — a retried
	// attempt replays the trace from the start, so reusing one would mix
	// two attempts' events. The recorder overrides Job.Opts.Recorder.
	TraceFor func(index, attempt int) *flight.Recorder
}

// Run executes the jobs on a bounded worker pool and returns one result
// slice per job, in job order. A failed job — including one that
// panicked — never stops the others: its error is wrapped in a *JobError
// and aggregated with errors.Join, and the slice still carries every
// successful job's results. Cancelling the context stops the pool within
// one reference batch.
func Run(ctx context.Context, jobs []Job, opts Options) ([][]sim.Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if opts.Metrics != nil {
		opts.Metrics.AddJobs(len(jobs))
	}

	out := make([][]sim.Result, len(jobs))
	errs := make([]error, len(jobs))

	// Ordered delivery: workers mark jobs done under mu; whichever worker
	// fills the gap at nextOut flushes the run of completed jobs, so
	// OnResult/OnError see index order and are never called concurrently.
	var mu sync.Mutex
	done := make([]bool, len(jobs))
	nextOut := 0
	completed := 0
	finish := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		done[i] = true
		completed++
		for nextOut < len(jobs) && done[nextOut] {
			if errs[nextOut] == nil {
				if opts.OnResult != nil {
					opts.OnResult(nextOut, out[nextOut])
				}
			} else if opts.OnError != nil {
				opts.OnError(nextOut, errs[nextOut])
			}
			nextOut++
		}
	}

	var claim atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(claim.Add(1)) - 1
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				rs, attempts, err := runJob(ctx, i, jobs[i], opts)
				out[i] = rs
				if err != nil {
					errs[i] = &JobError{Index: i, Label: jobs[i].Label, Attempts: attempts, Err: err}
					if opts.Metrics != nil {
						opts.Metrics.AddFailure()
					}
				}
				finish(i)
			}
		}()
	}
	wg.Wait()

	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	if completed < len(jobs) {
		// Jobs were skipped because the context ended before they
		// started; none of the started jobs saw it (they would have
		// errored), so surface it here.
		return out, context.Cause(ctx)
	}
	return out, nil
}

// runJob runs one job to completion, retrying transient failures on the
// policy's deterministic backoff schedule. It reports how many attempts
// ran.
func runJob(ctx context.Context, index int, j Job, opts Options) ([]sim.Result, int, error) {
	maxAttempts := opts.Retry.Max
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for attempt := 1; ; attempt++ {
		rs, err := runAttempt(ctx, index, attempt, j, opts)
		if err == nil {
			return rs, attempt, nil
		}
		if attempt >= maxAttempts || !IsTransient(err) || ctx.Err() != nil {
			return nil, attempt, err
		}
		if opts.Metrics != nil {
			opts.Metrics.AddRetry()
		}
		if d := opts.Retry.Backoff(index, attempt); d > 0 && opts.Sleep != nil {
			opts.Sleep(d)
		}
	}
}

// runAttempt opens the job's trace and runs its schemes once, threading
// the pool's instrumentation into the simulation driver. Panics are
// recovered into *PanicError; the per-attempt deadline and stall
// watchdog, when configured, cancel the attempt with their cause.
func runAttempt(ctx context.Context, index, attempt int, j Job, opts Options) (rs []sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			if opts.Metrics != nil {
				opts.Metrics.AddPanic()
			}
			rs, err = nil, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if opts.TransientFault != nil {
		if ferr := opts.TransientFault(index, attempt); ferr != nil {
			return nil, ferr
		}
	}
	if j.Source == nil {
		return nil, fmt.Errorf("runner: job has no trace source")
	}

	attemptCtx := ctx
	guarded := false
	if opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		attemptCtx, cancel = context.WithTimeoutCause(attemptCtx, opts.JobTimeout, ErrJobDeadline)
		defer cancel()
		guarded = true
	}
	var watchdog *time.Timer
	if opts.StallTimeout > 0 {
		wctx, cancel := context.WithCancelCause(attemptCtx)
		attemptCtx = wctx
		watchdog = time.AfterFunc(opts.StallTimeout, func() { cancel(ErrStalled) })
		defer watchdog.Stop()
		defer cancel(nil)
		guarded = true
	}

	rd, err := j.Source()
	if err != nil {
		return nil, err
	}
	if guarded {
		rd = &guardedReader{ctx: attemptCtx, rd: rd}
	}
	simOpts := j.Opts
	if opts.TraceFor != nil {
		simOpts.Recorder = opts.TraceFor(index, attempt)
	}
	// ticks counts this attempt's progress callbacks — the job's latency
	// in reference batches, a deterministic stand-in for wall clock.
	var ticks uint64
	if opts.Metrics != nil || opts.Progress != nil || watchdog != nil {
		prev := simOpts.OnProgress
		stall := opts.StallTimeout
		simOpts.OnProgress = func(n int) {
			if prev != nil {
				prev(n)
			}
			ticks++
			if watchdog != nil {
				watchdog.Reset(stall)
			}
			if opts.Metrics != nil {
				opts.Metrics.AddRefs(uint64(n))
			}
			if opts.Progress != nil {
				opts.Progress()
			}
		}
	}
	rs, err = sim.RunSchemes(attemptCtx, rd, j.Schemes, j.Config, simOpts)
	if err != nil {
		// When the attempt's own guard fired (not the run-level context),
		// report its cause — ErrStalled or ErrJobDeadline — instead of a
		// bare context error.
		if attemptCtx.Err() != nil && ctx.Err() == nil {
			err = context.Cause(attemptCtx)
		}
		return nil, err
	}
	if opts.Metrics != nil {
		burst := opts.Metrics.Histogram(obs.HistInvalBurst)
		for _, r := range rs {
			var ops uint64
			for _, n := range r.Stats.Ops {
				ops += n
			}
			opts.Metrics.AddEngine(r.Scheme, obs.EngineTally{
				Refs:         r.Stats.Refs,
				Transactions: r.Stats.Transactions,
				BusOps:       ops,
			})
			// Fold the Figure 1 fanout histogram into the run-wide
			// invalidations-per-write burst distribution: exact counts,
			// no per-reference cost.
			for fanout, n := range r.Stats.InvalFanout.Counts {
				burst.ObserveN(uint64(fanout), n)
			}
		}
		opts.Metrics.Histogram(obs.HistJobTicks).Observe(ticks)
		opts.Metrics.JobDone()
		if opts.Progress != nil {
			opts.Progress()
		}
	}
	return rs, nil
}
