package main

import (
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"dirsim/internal/atomicio"
	"dirsim/internal/otrace"
)

// benchService is the service name of the spans the benchmark records.
const benchService = "dirbench"

// recorder keeps the traced quarters' spans in memory until the run ends.
// The daemon's own spans are added to it as they are collected, so one
// file holds every span of an operation.
type recorder struct {
	mu    sync.Mutex
	seq   uint64
	spans []otrace.Span
}

// reserve returns a span id before the span's interval is known, so that
// children (and remote daemons, through the trace header) can name it as
// their parent.
func (r *recorder) reserve() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return r.seq
}

// spanID is the id otrace gives a span of benchService with this seq.
func spanID(seq uint64) string { return benchService + "#" + strconv.FormatUint(seq, 10) }

// put records a span of the benchmark under a reserved seq.
func (r *recorder) put(seq uint64, trace, parent, name string, start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, otrace.Span{
		Trace: trace, Service: benchService, Seq: seq, Parent: parent,
		Name: name, Start: start, End: end,
	})
}

// add records a span of the benchmark and returns its id.
func (r *recorder) add(trace, parent, name string, start, end int64) string {
	seq := r.reserve()
	r.put(seq, trace, parent, name, start, end)
	return spanID(seq)
}

// merge adds spans another tracer recorded.
func (r *recorder) merge(spans []otrace.Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spans...)
}

func (r *recorder) all() []otrace.Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return otrace.Dedup(append([]otrace.Span(nil), r.spans...))
}

// export writes the spans as NDJSON rows into the work directory.
func (r *recorder) export(cfg config) (string, error) {
	path := filepath.Join(cfg.workDir, "spans-"+cfg.workload+".ndjson")
	f, err := atomicio.Create(path)
	if err != nil {
		return "", err
	}
	if err := otrace.WriteNDJSON(f, r.all()); err != nil {
		f.Abort()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Commit(); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// checkSpanFile runs cmd/tracecheck on the span file; an empty binary
// path skips the check.
func checkSpanFile(tracecheck, path string) error {
	if tracecheck == "" {
		return nil
	}
	out, err := exec.Command(tracecheck, "-format", "spans", path).CombinedOutput()
	if err != nil {
		return fmt.Errorf("%v: %s", err, out)
	}
	return nil
}

// layerOf maps a span name to the module whose work it times. The
// benchmark names its own spans after the layer; the daemon's spans use
// the otrace taxonomy.
func layerOf(name string) string {
	switch name {
	case "job", "queue", "cache-serve", "replay", "cell-cache":
		return "server"
	case "chunk":
		return "runner"
	case "simulate":
		return "sim"
	}
	return name
}

// selfRow is one layer's line in the self-time table.
type selfRow struct {
	layer    string
	selfNS   int64 // summed self time over all traced operations
	perOpUS  float64
	share    float64
	spanRows int
}

// selfTimes computes each layer's self time — a span's duration minus the
// part of it its children cover — over every operation. An operation is a
// benchmark span with no parent. It also returns the median over
// operations of the self times of the layer spans below the operation's
// root, summed, in ms: the figure the untraced latency_p50_ms is checked
// against. The root's own self time is time no layer span covers, and is
// left out of that sum.
func selfTimes(spans []otrace.Span) ([]selfRow, float64) {
	children := map[string][]int{}
	for i, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, spans, children[s.ID()])
	}
	byLayer := map[string]*selfRow{}
	var total int64
	var opSums []float64
	for i, s := range spans {
		r := byLayer[layerOf(s.Name)]
		if r == nil {
			r = &selfRow{layer: layerOf(s.Name)}
			byLayer[r.layer] = r
		}
		r.selfNS += self[i]
		r.spanRows++
		total += self[i]
		if s.Parent == "" && s.Service == benchService {
			opSums = append(opSums, float64(treeSelf(i, spans, self, children)-self[i])/1e6)
		}
	}
	rows := make([]selfRow, 0, len(byLayer))
	for _, r := range byLayer {
		r.perOpUS = float64(r.selfNS) / float64(max(len(opSums), 1)) / 1e3
		if total > 0 {
			r.share = float64(r.selfNS) / float64(total)
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].selfNS != rows[j].selfNS {
			return rows[i].selfNS > rows[j].selfNS
		}
		return rows[i].layer < rows[j].layer
	})
	return rows, median(opSums)
}

// treeSelf sums the self times of span i and all its descendants.
func treeSelf(i int, spans []otrace.Span, self []int64, children map[string][]int) int64 {
	sum := self[i]
	for _, c := range children[spans[i].ID()] {
		sum += treeSelf(c, spans, self, children)
	}
	return sum
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(p otrace.Span, spans []otrace.Span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = p.Start
	for _, x := range ivs {
		if x.a > end {
			end = x.a
		}
		if x.b > end {
			sum += x.b - end
			end = x.b
		}
	}
	return sum
}

// printSelfTimes prints the per-layer self-time table of the traced quarters.
func printSelfTimes(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "self-time %-10s %12s %12s %8s %8s\n", "layer", "total_ms", "us_per_op", "share", "spans")
	for _, r := range o.selfRows {
		fmt.Fprintf(w, "self-time %-10s %12.3f %12.3f %7.1f%% %8d\n", r.layer, float64(r.selfNS)/1e6, r.perOpUS, 100*r.share, r.spanRows)
	}
}
