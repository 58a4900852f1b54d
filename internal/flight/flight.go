// Package flight is a deterministic, clock-free flight recorder for
// simulation runs: protocol engines' per-reference behaviour, captured as
// typed events in fixed-size per-worker ring buffers, exportable as
// NDJSON or Chrome trace-event JSON (loadable in Perfetto / chrome://
// tracing, one track per engine, spans for run phases).
//
// The paper's whole methodology is event accounting — per-reference
// protocol events weighted by bus costs — but those events normally
// vanish into aggregate coherence.Stats. The recorder makes the event
// stream itself visible: when a scheme misbehaves (an invalidation storm
// in Dir1B, pointer-eviction churn in Dir_iNB) the trace shows *when*
// and *why*, reference by reference.
//
// Determinism: timestamps are simulated reference ordinals, never wall
// clock, and sampling is by reference ordinal (every Nth), never random.
// Replaying the same trace with the same options yields the same events.
// Rings are single-writer (one per driver worker) and read only after
// the run completes, so recording needs no locks and no allocation — the
// obsring lint rule enforces the allocation-free hot path statically.
package flight

import (
	"fmt"
	"sort"
	"sync"

	"dirsim/internal/events"
)

// Kind classifies one recorded event. The first events.NumTypes values
// mirror events.Type (the Table 4 reference classifications); the rest
// are directory-specific protocol actions and structural span records.
type Kind uint8

const (
	// KindInval is a burst of directed invalidation messages (Arg is
	// the number of messages sent).
	KindInval Kind = Kind(events.NumTypes) + iota
	// KindBroadcast is a broadcast-invalidation fallback (Dir0B always;
	// Dir_iB beyond its pointer budget).
	KindBroadcast
	// KindPointerEviction is a Dir_iNB copy invalidated to free a
	// directory pointer (Arg is the count).
	KindPointerEviction
	// KindDirOverflow is a sparse-directory entry eviction: the
	// directory overflowed and every cached copy of the displaced block
	// was invalidated (Arg is the count).
	KindDirOverflow
	// KindSpan is a phase span covering references [Seq, Seq+Dur); Arg
	// is the phase id registered with Recorder.PhaseID.
	KindSpan
	// KindMark is an instant phase marker (Arg is the phase id).
	KindMark

	// NumKinds is the number of event kinds.
	NumKinds = int(KindMark) + 1
)

var kindNames = map[Kind]string{
	KindInval:           "inval-directed",
	KindBroadcast:       "inval-broadcast",
	KindPointerEviction: "pointer-eviction",
	KindDirOverflow:     "dir-overflow",
	KindSpan:            "span",
	KindMark:            "mark",
}

// String returns the event kind's mnemonic; reference-classification
// kinds use the Table 4 mnemonic of the underlying events.Type.
func (k Kind) String() string {
	if int(k) < events.NumTypes {
		return events.Type(k).String()
	}
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsSpan reports whether the kind is a structural record (span or mark)
// rather than a protocol event.
func (k Kind) IsSpan() bool { return k == KindSpan || k == KindMark }

// Event is one fixed-size trace record. It contains no pointers, so
// emitting one into a ring never allocates.
type Event struct {
	// Seq is the simulated reference ordinal the event is keyed to —
	// the deterministic timestamp.
	Seq uint64
	// Block is the referenced memory block (0 for structural records).
	Block uint64
	// Dur is the span length in references (0 for instants).
	Dur uint32
	// Arg carries kind-specific detail: message counts for protocol
	// events, the phase id for spans and marks.
	Arg uint32
	// Track is the recorder track (engine or driver) the event belongs
	// to.
	Track uint16
	// Cache is the issuing cache, or -1 when not applicable.
	Cache int16
	// Kind classifies the event.
	Kind Kind
}

// Ring is a fixed-size single-writer event buffer. When full it wraps,
// keeping the most recent events; Len and Dropped report how much
// survived. Emit is safe for exactly one concurrent writer (each driver
// worker owns one ring) and the buffer may be read only after writing
// has stopped.
type Ring struct {
	buf []Event
	n   uint64
}

// Emit appends one event, overwriting the oldest when the ring is full.
// The hot path: one store and one increment, no allocation.
func (r *Ring) Emit(e Event) {
	r.buf[r.n&uint64(len(r.buf)-1)] = e
	r.n++
}

// Len returns the number of events retained.
func (r *Ring) Len() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Dropped returns the number of events overwritten by wrapping.
func (r *Ring) Dropped() uint64 {
	if r.n < uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// events appends the retained events to dst in emission order.
func (r *Ring) events(dst []Event) []Event {
	if r.n > uint64(len(r.buf)) {
		// Oldest surviving event first: the write cursor wrapped.
		start := r.n & uint64(len(r.buf)-1)
		dst = append(dst, r.buf[start:]...)
		dst = append(dst, r.buf[:start]...)
		return dst
	}
	return append(dst, r.buf[:r.n]...)
}

// Options parameterises a Recorder.
type Options struct {
	// Sample records protocol events for one in Sample references
	// (sampled by reference ordinal, so the choice is deterministic);
	// 0 disables protocol-event capture entirely.
	Sample int
	// Capacity bounds each ring's event count; it is rounded up to a
	// power of two. 0 means 1<<16 events per ring.
	Capacity int
	// Spans records run-phase spans (decode, per-engine simulate,
	// report) in addition to sampled protocol events.
	Spans bool
	// Pid is the Chrome-trace process id — callers running one recorder
	// per job use the job ordinal, which groups each job's tracks.
	Pid int
	// Label names the process in exported traces (e.g. the job label).
	Label string
}

// DefaultSample is the CLI default sampling interval: cheap enough to
// leave on (one classified reference in 64), dense enough to see storms.
const DefaultSample = 64

const defaultCapacity = 1 << 16

// Recorder owns the rings, the track and phase name tables, and the
// export metadata for one simulation run (or one job of a sweep).
// Setup — AddTrack, PhaseID, NewRing — is mutex-guarded and happens
// before the run; Emit on the returned rings is the lock-free hot path.
type Recorder struct {
	opts Options

	mu      sync.Mutex
	tracks  []string
	phases  []string
	rings   []*Ring
	control *Ring // cmd-layer spans (report phases) land here
}

// New returns a recorder with the given options.
func New(opts Options) *Recorder {
	if opts.Sample < 0 {
		opts.Sample = 0
	}
	if opts.Capacity <= 0 {
		opts.Capacity = defaultCapacity
	}
	opts.Capacity = ceilPow2(opts.Capacity)
	return &Recorder{opts: opts}
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Enabled reports whether the recorder captures anything at all.
func (r *Recorder) Enabled() bool {
	return r != nil && (r.opts.Sample > 0 || r.opts.Spans)
}

// SampleEvery returns the protocol-event sampling interval (0 = none).
func (r *Recorder) SampleEvery() int { return r.opts.Sample }

// SpansEnabled reports whether phase spans are recorded.
func (r *Recorder) SpansEnabled() bool { return r.opts.Spans }

// Pid returns the recorder's Chrome-trace process id.
func (r *Recorder) Pid() int { return r.opts.Pid }

// Label returns the recorder's process label.
func (r *Recorder) Label() string { return r.opts.Label }

// AddTrack registers a named track (one per engine, plus the driver) and
// returns its id. Call during setup, before the run.
func (r *Recorder) AddTrack(name string) uint16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracks = append(r.tracks, name)
	return uint16(len(r.tracks) - 1)
}

// TrackName resolves a track id (empty for unknown ids).
func (r *Recorder) TrackName(id uint16) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) < len(r.tracks) {
		return r.tracks[id]
	}
	return ""
}

// Tracks returns the registered track names in id order.
func (r *Recorder) Tracks() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.tracks...)
}

// PhaseID interns a phase name for span events, returning a stable id.
// Call during setup or from cold paths only.
func (r *Recorder) PhaseID(name string) uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, p := range r.phases {
		if p == name {
			return uint32(i)
		}
	}
	r.phases = append(r.phases, name)
	return uint32(len(r.phases) - 1)
}

// PhaseName resolves a phase id (empty for unknown ids).
func (r *Recorder) PhaseName(id uint32) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) < len(r.phases) {
		return r.phases[id]
	}
	return ""
}

// NewRing allocates and registers one ring. Each driver worker gets its
// own so emission stays single-writer and contention-free.
func (r *Recorder) NewRing() *Ring {
	ring := &Ring{buf: make([]Event, r.opts.Capacity)}
	r.mu.Lock()
	r.rings = append(r.rings, ring)
	r.mu.Unlock()
	return ring
}

// Span records a phase span [start, end) on the given track from a cold
// path (the cmd layer's report phase, the daemon's per-job phases). Not
// for the per-reference hot path — use a Ring there.
func (r *Recorder) Span(track uint16, phase string, start, end uint64) {
	if !r.Enabled() || !r.opts.Spans {
		return
	}
	id := r.PhaseID(phase)
	r.mu.Lock()
	if r.control == nil {
		r.control = &Ring{buf: make([]Event, r.opts.Capacity)}
		r.rings = append(r.rings, r.control)
	}
	ring := r.control
	dur := end - start
	r.mu.Unlock()
	ring.Emit(Event{Seq: start, Dur: uint32(dur), Track: track, Cache: -1, Kind: KindSpan, Arg: id})
}

// Mark records an instant phase marker at seq on the given track (cold
// path, like Span).
func (r *Recorder) Mark(track uint16, phase string, seq uint64) {
	if !r.Enabled() || !r.opts.Spans {
		return
	}
	id := r.PhaseID(phase)
	r.mu.Lock()
	if r.control == nil {
		r.control = &Ring{buf: make([]Event, r.opts.Capacity)}
		r.rings = append(r.rings, r.control)
	}
	ring := r.control
	r.mu.Unlock()
	ring.Emit(Event{Seq: seq, Track: track, Cache: -1, Kind: KindMark, Arg: id})
}

// Events merges every ring and returns the retained events in canonical
// order: ascending Seq, then Track, then Kind, then the remaining fields
// — a total order, so export bytes are a deterministic function of the
// recorded set. Call only after the run has completed.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	rings := append([]*Ring(nil), r.rings...)
	r.mu.Unlock()
	var out []Event
	for _, ring := range rings {
		out = ring.events(out)
	}
	sortEvents(out)
	return out
}

// sortEvents orders events canonically (see Recorder.Events). The
// comparator is a total order over every field, so equal recorded sets
// always export identical bytes.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Cache != b.Cache {
			return a.Cache < b.Cache
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.Arg != b.Arg {
			return a.Arg < b.Arg
		}
		return a.Dur < b.Dur
	})
}

// Dropped returns the total number of events lost to ring wrapping
// across all rings.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for _, ring := range r.rings {
		n += ring.Dropped()
	}
	return n
}
