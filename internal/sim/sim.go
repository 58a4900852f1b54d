// Package sim drives coherence protocol engines over multiprocessor
// address traces, reproducing the methodology of Section 4.
//
// One driver loop streams a trace once, in chunks: each reference is
// decoded once — cache attribution resolved, block number computed and
// interned, the paper's first-reference exclusion applied from the shared
// block-id table ("we exclude the misses caused by the first reference to
// a block in the trace because these occur in a uniprocessor infinite
// cache as well") — and applied to every engine in lockstep. The flight
// recorder, when attached, is a hook on that same loop. Results carry the
// Table 4 event counts, the bus-operation tallies priced by internal/bus,
// and the Figure 1 invalidation-fanout histogram.
package sim

import (
	"context"
	"fmt"
	"io"
	"math/bits"

	"dirsim/internal/blockid"
	"dirsim/internal/bus"
	"dirsim/internal/coherence"
	"dirsim/internal/events"
	"dirsim/internal/flight"
	"dirsim/internal/trace"
)

// CacheBy selects which trace field identifies the cache a reference goes
// to.
type CacheBy int

const (
	// ByCPU assigns references to per-processor caches (the physical
	// arrangement).
	ByCPU CacheBy = iota
	// ByProcess assigns references to per-process caches, eliminating
	// migration-induced sharing — the attribution the paper prefers
	// (Section 4.4). Process IDs are mapped densely to cache indices in
	// order of first appearance.
	ByProcess
)

// Options configures a simulation run.
type Options struct {
	// BlockBytes is the coherence block size; zero means the paper's 16
	// bytes. Must be a power of two.
	BlockBytes int
	// CacheBy selects per-CPU (default) or per-process caches.
	CacheBy CacheBy
	// IncludeFirstRefCosts prices cold misses instead of excluding them.
	// The paper's methodology excludes them; finite-cache studies may
	// want them included.
	IncludeFirstRefCosts bool
	// WarmupRefs, when positive, runs that many leading references
	// through the engines to populate caches and directories, then
	// discards the tallies: only the remainder of the trace is measured.
	// An alternative to first-reference exclusion for finite-cache
	// studies (the two compose).
	WarmupRefs int
	// OnProgress, when non-nil, is called with the number of references
	// applied since the previous call, once per chunk of the driver loop,
	// from the goroutine that called Run. It must be fast.
	OnProgress func(n int)
	// Recorder, when non-nil and enabled, captures sampled protocol
	// events and run-phase spans into flight rings. It is a pure
	// observer: engine Stats are bitwise identical with and without it.
	Recorder *flight.Recorder
}

func (o Options) blockBytes() int {
	if o.BlockBytes == 0 {
		return trace.DefaultBlockBytes
	}
	return o.BlockBytes
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.BlockBytes != 0 && !trace.IsPow2(o.BlockBytes) {
		return fmt.Errorf("sim: block size %d is not a power of two", o.BlockBytes)
	}
	if o.CacheBy != ByCPU && o.CacheBy != ByProcess {
		return fmt.Errorf("sim: unknown CacheBy %d", o.CacheBy)
	}
	if o.WarmupRefs < 0 {
		return fmt.Errorf("sim: negative WarmupRefs %d", o.WarmupRefs)
	}
	return nil
}

// Result is the outcome of running one engine over one trace.
type Result struct {
	// Scheme is the engine's name.
	Scheme string
	// Stats are the engine's accumulated tallies (shared with the
	// engine; treat as read-only after the run).
	Stats *coherence.Stats
	// adjust rewrites cost models for engines with a published cost
	// derivation (Berkeley's free directory checks); identity otherwise.
	adjust func(bus.CostModel) bus.CostModel
}

// Model returns the cost model as this scheme prices it (applying, e.g.,
// Berkeley's zero-cost directory checks).
func (r Result) Model(m bus.CostModel) bus.CostModel {
	if r.adjust != nil {
		return r.adjust(m)
	}
	return m
}

// CyclesPerRef prices the run under m, per reference — the paper's primary
// metric.
func (r Result) CyclesPerRef(m bus.CostModel) float64 {
	return r.Stats.CyclesPerRef(r.Model(m))
}

// CyclesPerRefWithOverhead adds Section 5.1's per-transaction overhead q.
func (r Result) CyclesPerRefWithOverhead(m bus.CostModel, q float64) float64 {
	return r.Stats.CyclesPerRefWithOverhead(r.Model(m), q)
}

// CyclesPerTransaction is Figure 5's metric.
func (r Result) CyclesPerTransaction(m bus.CostModel) float64 {
	return r.Stats.CyclesPerTransaction(r.Model(m))
}

// CyclesByOp returns the Table 5 per-operation breakdown.
func (r Result) CyclesByOp(m bus.CostModel) [bus.NumOps]float64 {
	return r.Model(m).CyclesByOp(r.Stats.Ops)
}

// EventFrequency returns an event's frequency as a fraction of all
// references (Table 4's unit, which prints it as a percentage).
func (r Result) EventFrequency(t events.Type) float64 {
	return r.Stats.Events.Frequency(t)
}

// AvgAccessTime prices the run under a processor-latency model — Section
// 5.1's "average memory access time as seen by each processor". The
// latency model's operation costs are adjusted the same way the scheme's
// cost model is (Berkeley's free directory checks).
func (r Result) AvgAccessTime(l bus.LatencyModel) float64 {
	base := bus.CostModel{Name: l.Name, Cost: l.Cost}
	adjusted := r.Model(base)
	l.Cost = adjusted.Cost
	return l.AvgAccessTime(r.Stats.Refs, r.Stats.Transactions, r.Stats.Ops)
}

// DirToMemBandwidthRatio compares directory accesses with memory accesses,
// quantifying Section 5's finding that "the required directory bandwidth is
// only slightly higher than the bandwidth to memory".
func (r Result) DirToMemBandwidthRatio() float64 {
	if r.Stats.MemAccesses == 0 {
		return 0
	}
	return float64(r.Stats.DirAccesses) / float64(r.Stats.MemAccesses)
}

// batchRefs is the driver's chunk size: cancellation checks, progress
// callbacks and phase spans all happen once per chunk of this many
// references, so a cancelled run returns within one chunk.
const batchRefs = 4096

// engineSlot pairs an engine with its id-indexed fast path. idx is non-nil
// when the engine accepted the driver's shared block-id table, letting the
// driver skip the engine's own interning; otherwise the driver falls back
// to the address-keyed Access method (e.g. for an engine that already
// carries state from an earlier run, or a caller-supplied engine outside
// the built-in families).
type engineSlot struct {
	eng coherence.Engine
	idx coherence.IndexedEngine
}

// bindEngines offers every engine the driver's block-id table.
func bindEngines(engines []coherence.Engine, tab *blockid.Table) []engineSlot {
	slots := make([]engineSlot, len(engines))
	for i, e := range engines {
		slots[i].eng = e
		if ie, ok := e.(coherence.IndexedEngine); ok && ie.BindBlocks(tab) {
			slots[i].idx = ie
		}
	}
	return slots
}

// runTrace holds the per-run flight-recorder wiring: the ring the driver
// emits into, the sampling interval, the driver track, and one track per
// engine (aligned with the engine slice). Phase ids are interned up front so the hot path never
// touches the recorder's name tables.
type runTrace struct {
	ring     *flight.Ring
	sample   uint64
	spans    bool
	driver   uint16
	tracks   []uint16
	decodeID uint32
	simID    uint32
}

// newRunTrace registers the run's tracks and phases on rec. It returns
// nil when the recorder captures nothing, which keeps every traced code
// path behind one nil check.
func newRunTrace(rec *flight.Recorder, engines []coherence.Engine) *runTrace {
	if !rec.Enabled() {
		return nil
	}
	tr := &runTrace{
		ring:   rec.NewRing(),
		sample: uint64(rec.SampleEvery()),
		spans:  rec.SpansEnabled(),
		driver: rec.AddTrack("driver"),
		tracks: make([]uint16, len(engines)),
	}
	for i, e := range engines {
		tr.tracks[i] = rec.AddTrack(e.Name())
	}
	tr.decodeID = rec.PhaseID("decode")
	tr.simID = rec.PhaseID("simulate")
	return tr
}

// driver is the one simulation loop. It takes the trace in chunks of
// batchRefs references, decodes each reference once — cache attribution
// resolved, block number computed and interned to a dense id, first-
// reference flag set — and applies it to every engine in lockstep. The
// shared block-id table and process-to-cache mapping live here, which is
// what keeps the engines independent of each other. Interning doubles as
// the paper's first-reference detection: a fresh id is by definition the
// first reference to that block in the trace.
type driver struct {
	rd trace.Reader
	// sr is non-nil when rd replays an in-memory trace: chunks are then
	// zero-copy views of it instead of buf refills through Next.
	sr  *trace.SliceReader
	buf []trace.Ref

	caches    int
	byProcess bool
	include   bool // Options.IncludeFirstRefCosts
	// blockShift turns a byte address into a block number. Validate
	// guarantees the block size is a power of two, so the loop shifts
	// instead of dividing by a variable.
	blockShift uint
	tab        *blockid.Table
	pidToCache map[uint16]int

	// slots lists every engine in Run's order; indexed and fallback
	// split it by the method the hot loop calls.
	slots    []engineSlot
	indexed  []coherence.IndexedEngine
	fallback []coherence.Engine

	warmup     int
	processed  int // references applied so far
	tr         *runTrace
	nextSample uint64 // ordinal of the next sampled reference when tr != nil
}

func newDriver(rd trace.Reader, engines []coherence.Engine, caches int, opts Options) *driver {
	d := &driver{
		rd:         rd,
		caches:     caches,
		byProcess:  opts.CacheBy == ByProcess,
		include:    opts.IncludeFirstRefCosts,
		blockShift: uint(bits.TrailingZeros(uint(opts.blockBytes()))),
		tab:        blockid.New(),
		pidToCache: map[uint16]int{},
		warmup:     opts.WarmupRefs,
		tr:         newRunTrace(opts.Recorder, engines),
	}
	if d.sr, _ = rd.(*trace.SliceReader); d.sr == nil {
		d.buf = make([]trace.Ref, 0, batchRefs)
	}
	d.slots = bindEngines(engines, d.tab)
	for _, s := range d.slots {
		if s.idx != nil {
			d.indexed = append(d.indexed, s.idx)
		} else {
			d.fallback = append(d.fallback, s.eng)
		}
	}
	return d
}

// run drives the whole trace, checking ctx and reporting progress once
// per chunk.
func (d *driver) run(ctx context.Context, onProgress func(n int)) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		refs, more, err := d.next()
		if err != nil {
			return err
		}
		if len(refs) > 0 {
			if err := d.chunk(refs); err != nil {
				return err
			}
			if onProgress != nil {
				onProgress(len(refs))
			}
		}
		if !more {
			break
		}
	}
	if d.processed < d.warmup {
		// The trace ended inside the warm-up window: nothing measured.
		d.resetStats()
	}
	return nil
}

// next returns the next chunk of at most batchRefs references and whether
// the trace may continue past it.
func (d *driver) next() ([]trace.Ref, bool, error) {
	if d.sr != nil {
		refs := d.sr.Take(batchRefs)
		return refs, len(refs) == batchRefs, nil
	}
	refs := d.buf[:0]
	for len(refs) < batchRefs {
		ref, err := d.rd.Next()
		if err == io.EOF {
			return refs, false, nil
		}
		if err != nil {
			return nil, false, err
		}
		refs = append(refs, ref)
	}
	return refs, true, nil
}

// chunk applies one chunk in segments that end at the warm-up boundary
// and, with a recorder attached, isolate each sampled reference, so the
// apply loop itself carries no per-reference counter. Spans cover the
// whole chunk: decode on the driver track, simulate on every engine's.
func (d *driver) chunk(refs []trace.Ref) error {
	tr := d.tr
	start := uint64(d.processed)
	if tr != nil && tr.spans {
		tr.ring.Emit(flight.Event{Seq: start, Dur: uint32(len(refs)), Track: tr.driver, Cache: -1, Kind: flight.KindSpan, Arg: tr.decodeID})
	}
	for rest := refs; len(rest) > 0; {
		n := len(rest)
		if w := d.warmup; w > d.processed && w-d.processed < n {
			n = w - d.processed
		}
		sampled := false
		if tr != nil && tr.sample > 0 {
			if gap := d.nextSample - uint64(d.processed); gap == 0 {
				n, sampled = 1, true
				d.nextSample += tr.sample
			} else if gap < uint64(n) {
				n = int(gap)
			}
		}
		if err := d.apply(rest[:n], sampled); err != nil {
			return err
		}
		rest = rest[n:]
		d.processed += n
		if d.processed == d.warmup {
			// End of warm-up: keep all protocol state, measure only what
			// follows.
			d.resetStats()
		}
	}
	if tr != nil && tr.spans {
		for _, t := range tr.tracks {
			tr.ring.Emit(flight.Event{Seq: start, Dur: uint32(len(refs)), Track: t, Cache: -1, Kind: flight.KindSpan, Arg: tr.simID})
		}
	}
	return nil
}

// apply decodes each reference of a segment once and applies it to every
// engine. Instruction fetches change no protocol state and contribute only
// commutative sums, so when every engine is indexed they are counted and
// flushed as one AccessInstrs call per segment (segments never span the
// warm-up boundary). A sampled segment is the single reference record
// applies instead.
func (d *driver) apply(refs []trace.Ref, sampled bool) error {
	coalesce := !sampled && len(d.fallback) == 0
	instrs := uint64(0)
	for i := range refs {
		ref := &refs[i]
		c := int(ref.CPU)
		if d.byProcess {
			// The map update must run for instruction fetches too:
			// process-to-cache assignment is by order of first appearance
			// in the full stream.
			var ok bool
			if c, ok = d.pidToCache[ref.PID]; !ok {
				c = len(d.pidToCache)
				d.pidToCache[ref.PID] = c
			}
		}
		if c >= d.caches {
			return fmt.Errorf("sim: reference needs cache %d but engines have %d caches", c, d.caches)
		}
		if ref.Kind == trace.Instr && coalesce {
			instrs++
			continue
		}
		block := ref.Addr >> d.blockShift
		var id blockid.ID
		first := false
		if ref.Kind != trace.Instr {
			var fresh bool
			id, fresh = d.tab.Intern(block)
			first = fresh && !d.include
		}
		if sampled {
			d.record(c, ref.Kind, block, id, first)
			continue
		}
		for _, e := range d.indexed {
			e.AccessID(c, ref.Kind, block, id, first)
		}
		for _, e := range d.fallback {
			e.Access(c, ref.Kind, block, first)
		}
	}
	if instrs > 0 {
		for _, e := range d.indexed {
			e.AccessInstrs(instrs)
		}
	}
	return nil
}

// record applies the sampled reference at ordinal d.processed to every
// engine and emits its Table 4 classification on the engine's track, plus
// any directory protocol actions the access triggered — derived by
// diffing the engine's own Stats counters around the call, so the engines
// themselves are untouched and their tallies provably unchanged.
func (d *driver) record(c int, kind trace.Kind, block uint64, id blockid.ID, first bool) {
	seq := uint64(d.processed)
	ring := d.tr.ring
	for ei, s := range d.slots {
		track := d.tr.tracks[ei]
		st := s.eng.Stats()
		di := st.DirectedInvals
		bi := st.BroadcastInvals
		pe := st.PointerEvictions
		de := st.DirEntryEvictions
		var typ events.Type
		if s.idx != nil {
			typ = s.idx.AccessID(c, kind, block, id, first)
		} else {
			typ = s.eng.Access(c, kind, block, first)
		}
		ring.Emit(flight.Event{Seq: seq, Block: block, Track: track, Cache: int16(c), Kind: flight.Kind(typ)})
		if n := st.DirectedInvals - di; n > 0 {
			ring.Emit(flight.Event{Seq: seq, Block: block, Arg: uint32(n), Track: track, Cache: int16(c), Kind: flight.KindInval})
		}
		if n := st.BroadcastInvals - bi; n > 0 {
			ring.Emit(flight.Event{Seq: seq, Block: block, Arg: uint32(n), Track: track, Cache: int16(c), Kind: flight.KindBroadcast})
		}
		if n := st.PointerEvictions - pe; n > 0 {
			ring.Emit(flight.Event{Seq: seq, Block: block, Arg: uint32(n), Track: track, Cache: int16(c), Kind: flight.KindPointerEviction})
		}
		if n := st.DirEntryEvictions - de; n > 0 {
			ring.Emit(flight.Event{Seq: seq, Block: block, Arg: uint32(n), Track: track, Cache: int16(c), Kind: flight.KindDirOverflow})
		}
	}
}

func (d *driver) resetStats() {
	for _, s := range d.slots {
		s.eng.ResetStats()
	}
}

// Run streams rd through every engine and returns one Result per engine,
// in order. All engines must have the same cache count, and the trace
// must fit within it. The context cancels the run between chunks of
// references.
func Run(ctx context.Context, rd trace.Reader, engines []coherence.Engine, opts Options) ([]Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(engines) == 0 {
		return nil, fmt.Errorf("sim: no engines")
	}
	caches := engines[0].Caches()
	for _, e := range engines[1:] {
		if e.Caches() != caches {
			return nil, fmt.Errorf("sim: engine %s has %d caches, %s has %d",
				e.Name(), e.Caches(), engines[0].Name(), caches)
		}
	}
	if err := newDriver(rd, engines, caches, opts).run(ctx, opts.OnProgress); err != nil {
		return nil, err
	}
	results := make([]Result, len(engines))
	for i, e := range engines {
		results[i] = Result{Scheme: e.Name(), Stats: e.Stats()}
		if adj, ok := e.(coherence.ModelAdjuster); ok {
			results[i].adjust = adj.AdjustModel
		}
	}
	return results, nil
}

// RunSchemes builds the named engines and runs rd through them.
func RunSchemes(ctx context.Context, rd trace.Reader, names []string, cfg coherence.Config, opts Options) ([]Result, error) {
	engines := make([]coherence.Engine, len(names))
	for i, n := range names {
		e, err := coherence.NewByName(n, cfg)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	return Run(ctx, rd, engines, opts)
}

// Combine merges per-trace results for the same scheme into one aggregate,
// the way the paper averages event frequencies "across the three traces"
// (reference-weighted, which merging raw counts achieves).
func Combine(results []Result) (Result, error) {
	if len(results) == 0 {
		return Result{}, fmt.Errorf("sim: nothing to combine")
	}
	agg := &coherence.Stats{}
	maxCaches := 0
	for _, r := range results {
		if n := len(r.Stats.PerCache); n > maxCaches {
			maxCaches = n
		}
	}
	if maxCaches > 0 {
		agg.PerCache = make([]coherence.CacheTally, maxCaches)
	}
	for _, r := range results {
		if r.Scheme != results[0].Scheme {
			return Result{}, fmt.Errorf("sim: cannot combine %s with %s", r.Scheme, results[0].Scheme)
		}
		agg.Refs += r.Stats.Refs
		agg.Events.Merge(r.Stats.Events)
		agg.Ops.Merge(r.Stats.Ops)
		agg.Transactions += r.Stats.Transactions
		agg.InvalFanout.Add(&r.Stats.InvalFanout)
		agg.InvalEvents += r.Stats.InvalEvents
		agg.DirectedInvals += r.Stats.DirectedInvals
		agg.BroadcastInvals += r.Stats.BroadcastInvals
		agg.WastedInvals += r.Stats.WastedInvals
		agg.PointerEvictions += r.Stats.PointerEvictions
		agg.DirAccesses += r.Stats.DirAccesses
		agg.MemAccesses += r.Stats.MemAccesses
		agg.Evictions += r.Stats.Evictions
		agg.EvictionWriteBacks += r.Stats.EvictionWriteBacks
		agg.DirEntryEvictions += r.Stats.DirEntryEvictions
		agg.Snarfs += r.Stats.Snarfs
		for i, ct := range r.Stats.PerCache {
			agg.PerCache[i].Hits += ct.Hits
			agg.PerCache[i].Misses += ct.Misses
			agg.PerCache[i].Writes += ct.Writes
		}
	}
	return Result{Scheme: results[0].Scheme, Stats: agg, adjust: results[0].adjust}, nil
}
