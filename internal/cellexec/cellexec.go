// Package cellexec is the one seam every batch of simulation cells runs
// through, whichever command asks and wherever the cells execute: in
// process on the runner pool (Local), or on a dirsimd fleet (Fleet) — a
// single daemon being a one-peer fleet. Both report each cell through
// the same serialized callback, so a command picks an executor once and
// everything downstream of a finished cell is shared.
package cellexec

import (
	"context"
	"fmt"
	"sync"

	"dirsim/internal/cluster"
	"dirsim/internal/flight"
	"dirsim/internal/runner"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
)

// Done receives one cell's outcome: its results, or the error that
// failed it. i indexes the cells slice handed to Exec. Calls are
// serialized, never concurrent.
type Done func(i int, rs []sim.Result, err error)

// Exec runs the cells at the indices in todo (nil means every cell) and
// reports each through onDone. Its error is the batch's: the joined
// per-cell failures of a local run, the first failure of a fleet run,
// or the context's cause.
type Exec func(ctx context.Context, cells []spec.Cell, todo []int, onDone Done) error

// Local returns the in-process executor. Each cell compiles to a runner
// job (spec.Cell.Job), which prepare — when non-nil — may adjust, say to
// wrap its trace source in fault injection; the batch then runs on the
// runner pool under opts. Cells report in index order, and a failed
// cell (reported with its *runner.JobError) never stops the rest. The
// seam owns opts' OnResult, OnError and TraceFor; its other per-job
// hooks see batch positions. A non-nil sink gives every job a flight
// recorder.
func Local(opts runner.Options, prepare func(i int, j *runner.Job), sink *Sink) Exec {
	return func(ctx context.Context, cells []spec.Cell, todo []int, onDone Done) error {
		todo = indices(todo, len(cells))
		jobs := make([]runner.Job, len(todo))
		for k, i := range todo {
			j, err := cells[i].Job()
			if err != nil {
				return err
			}
			if prepare != nil {
				prepare(i, &j)
			}
			jobs[k] = j
		}
		ropts := opts
		ropts.OnResult = func(k int, rs []sim.Result) { onDone(todo[k], rs, nil) }
		ropts.OnError = func(k int, err error) { onDone(todo[k], nil, err) }
		if sink != nil {
			ropts.TraceFor = sink.hook(cells, todo)
		}
		_, err := runner.Run(ctx, jobs, ropts)
		return err
	}
}

// Fleet returns the executor that runs cells on a dirsimd fleet through
// c, workers cells at a time: each cell goes to its rendezvous owner,
// hedged and failed over down the HRW order, and its result document
// converts back to results that price identically to a local run.
// Cells report in completion order; the first failure cancels the rest
// and is returned.
func Fleet(c *cluster.Client, workers int) Exec {
	return func(ctx context.Context, cells []spec.Cell, todo []int, onDone Done) error {
		todo = indices(todo, len(cells))
		batch := make([]spec.Cell, len(todo))
		for k, i := range todo {
			batch[k] = cells[i]
		}
		var convErr error
		err := c.RunCells(ctx, batch, workers, func(k int, doc *spec.ResultDoc, err error) {
			var rs []sim.Result
			if err == nil {
				if rs, err = cluster.Results(doc, batch[k]); err != nil && convErr == nil {
					convErr = fmt.Errorf("cell %d (%s): %w", todo[k], batch[k].Label(), err)
				}
			}
			onDone(todo[k], rs, err)
		})
		if err == nil {
			err = convErr
		}
		return err
	}
}

// Collect runs every cell through ex and returns the results in cell
// order, or the batch's error.
func Collect(ctx context.Context, ex Exec, cells []spec.Cell) ([][]sim.Result, error) {
	out := make([][]sim.Result, len(cells))
	if err := ex(ctx, cells, nil, func(i int, rs []sim.Result, _ error) { out[i] = rs }); err != nil {
		return nil, err
	}
	return out, nil
}

// indices returns todo, or every index below n when todo is nil.
func indices(todo []int, n int) []int {
	if todo != nil {
		return todo
	}
	todo = make([]int, n)
	for i := range todo {
		todo[i] = i
	}
	return todo
}

// Sink collects one flight recorder per executed job across every batch
// a Local executor runs. A job's pid is its cell index offset by the
// cell counts of earlier batches, so each job renders as its own
// process group and keeps the same pid whichever subset of its batch
// ran (a resumed sweep's re-run cells keep their grid indices).
type Sink struct {
	// Sample and Spans configure each recorder (see flight.Options).
	Sample int
	Spans  bool

	mu   sync.Mutex
	recs []*flight.Recorder
}

// hook reserves one recorder slot per cell of a batch and returns the
// runner's TraceFor callback: a fresh recorder per attempt, so a retried
// job's trace is the attempt that produced its results.
func (s *Sink) hook(cells []spec.Cell, todo []int) func(k, attempt int) *flight.Recorder {
	s.mu.Lock()
	base := len(s.recs)
	s.recs = append(s.recs, make([]*flight.Recorder, len(cells))...)
	s.mu.Unlock()
	return func(k, attempt int) *flight.Recorder {
		i := todo[k]
		rec := flight.New(flight.Options{
			Sample: s.Sample, Spans: s.Spans,
			Pid: base + i, Label: cells[i].Label(),
		})
		s.mu.Lock()
		s.recs[base+i] = rec
		s.mu.Unlock()
		return rec
	}
}

// Recorders returns the collected recorders in pid order; cells that
// never ran leave nil slots, which flight's writers elide.
func (s *Sink) Recorders() []*flight.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*flight.Recorder(nil), s.recs...)
}
