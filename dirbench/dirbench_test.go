package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"dirsim/internal/otrace"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
)

// tinySizes keeps every smoke run to a fraction of a second of work.
func tinySizes() sizes {
	return sizes{
		GridRefs:     20_000,
		ServeMinRefs: 200,
		ServeMaxRefs: 600,
		Setups:       2,
		LayerMillis:  2,
	}
}

// tinyConfig runs 300ms, or 1s when traced, so that each of the traced
// run's quarters holds enough operations for its latency median.
func tinyConfig(t *testing.T, workload string, traced bool) config {
	d := 300 * time.Millisecond
	if traced {
		d = time.Second
	}
	return config{
		workload: workload,
		seed:     7,
		duration: d,
		traced:   traced,
		workDir:  t.TempDir(),
		sizes:    tinySizes(),
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCatalog pins BENCHMARK.json to the metrics and
// workloads the program measures.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("workloads %v, program has %v", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %s %s %s", kind, i, m, want[i].Name, want[i].Unit, want[i].Better)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that every metric BENCHMARK.json names is printed with its unit
// and that no operation failed.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(w+"/trace="+strconv.FormatBool(traced), func(t *testing.T) {
				cfg := tinyConfig(t, w, traced)
				var out bytes.Buffer
				rep, err := execute(context.Background(), cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				r := rep.result
				if r.Attempted < 1 || r.Failed != 0 || !r.Correct {
					t.Fatalf("attempted %d failed %d correct %v; problems %v", r.Attempted, r.Failed, r.Correct, rep.problems)
				}
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if !traced {
					for _, m := range bf.EndToEnd {
						if r.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v, want > 0", m.Name, r.Metrics[m.Name].Value)
						}
					}
					return
				}
				checkSpanTree(t, filepath.Join(cfg.workDir, "spans-"+w+".ndjson"))
			})
		}
	}
}

// checkSpanTree applies the rules cmd/tracecheck -format spans enforces:
// unique ids and every parent present.
func checkSpanTree(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := otrace.ReadNDJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("span file is empty")
	}
	ids := map[string]bool{}
	for _, s := range spans {
		if ids[s.ID()] {
			t.Errorf("duplicate span id %s", s.ID())
		}
		ids[s.ID()] = true
	}
	for _, s := range spans {
		if s.Parent != "" && !ids[s.Parent] {
			t.Errorf("span %s (%s) has missing parent %s", s.ID(), s.Name, s.Parent)
		}
	}
}

// TestOfflineOracleCatchesPerturbedStats feeds the offline-grid oracle a
// pass whose dir0b-alone Stats differ from the lockstep slot and a pass
// whose Stats differ from the first pass.
func TestOfflineOracleCatchesPerturbedStats(t *testing.T) {
	cfg := tinyConfig(t, "offline-grid", false)
	g := &offlineGrid{}
	if err := g.setup(cfg); err != nil {
		t.Fatal(err)
	}
	o := &outcome{values: map[string]float64{}}
	g.phase(context.Background(), time.Millisecond, nil, o)
	if o.failed != 0 {
		t.Fatalf("clean pass failed: %v", o.problems)
	}
	rss := runGrid(t, g)
	last := len(rss) - 1
	rss[last][0].Stats.Transactions++ // a dir0b-alone cell
	g.checkPass(rss, o)
	if o.failed < 2 {
		t.Errorf("perturbed dir0b-alone Stats raised %d failures, want the slot mismatch and the pass mismatch", o.failed)
	}
}

func runGrid(t *testing.T, g *offlineGrid) [][]sim.Result {
	t.Helper()
	var out [][]sim.Result
	for i := range g.jobs {
		j := g.jobs[i]
		rd, err := j.Source()
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sim.RunSchemes(context.Background(), rd, j.Schemes, j.Config, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rs)
	}
	return out
}

// TestServeOracleCatchesPerturbedDocuments puts a proxy between the
// serve-mixed clients and the daemon that adds one to a tally in every
// result document, and checks that the run reports failed operations.
func TestServeOracleCatchesPerturbedDocuments(t *testing.T) {
	cfg := tinyConfig(t, "serve-mixed", false)
	s := &serveMixed{}
	if err := s.setup(cfg); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	target, err := url.Parse(s.d.url)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ModifyResponse = perturbDocument
	ts := httptest.NewServer(proxy)
	defer ts.Close()
	daemonURL := s.d.url
	s.d.url = ts.URL
	o := &outcome{values: map[string]float64{}}
	ps := s.phase(context.Background(), 200*time.Millisecond, nil, o)
	s.finish(context.Background(), cfg, o)
	s.d.url = daemonURL
	if ps.ops == 0 || o.attempted == 0 {
		t.Fatalf("no requests completed")
	}
	if o.failed == 0 || o.correct() {
		t.Fatalf("perturbed documents passed the oracle: failed %d of %d", o.failed, o.attempted)
	}
}

// TestServeCountsRefusals answers every request with 429: each counts as
// a failed, refused operation and as server.rejected, not as a wrong
// output.
func TestServeCountsRefusals(t *testing.T) {
	cfg := tinyConfig(t, "serve-mixed", false)
	s := &serveMixed{}
	if err := s.setup(cfg); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // drained only to reuse the connection
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server: job queue full (16)", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	daemonURL := s.d.url
	s.d.url = ts.URL
	o := &outcome{values: map[string]float64{}}
	s.phase(context.Background(), 100*time.Millisecond, nil, o)
	s.d.url = daemonURL
	s.layerValues(o)
	if o.attempted == 0 || o.failed != o.attempted || o.refused != o.attempted || !o.correct() {
		t.Fatalf("attempted %d failed %d refused %d correct %v", o.attempted, o.failed, o.refused, o.correct())
	}
	if got := o.values["server.rejected"]; got != float64(o.attempted) {
		t.Errorf("server.rejected = %v, want %d", got, o.attempted)
	}
}

// TestKeptWindows checks that windows the host stole from are left out,
// but never more than half of them.
func TestKeptWindows(t *testing.T) {
	mk := func(steals ...float64) phaseStats {
		var p phaseStats
		for i, st := range steals {
			p.add(window{start: int64(i), end: int64(i + 1), wall: time.Second, ops: 10 * (i + 1), steal: st})
		}
		return p
	}
	if got := len(mk(0, 0.01, 0.2, 0.03).kept()); got != 3 {
		t.Errorf("kept %d windows, want 3", got)
	}
	p := mk(0.3, 0.1, 0.2, 0.4)
	k := p.kept()
	if len(k) != 2 || k[0].steal != 0.1 || k[1].steal != 0.2 {
		t.Errorf("kept %+v, want the two least-stolen windows", k)
	}
	if ops, _ := p.rates(); !near(ops, 25) {
		t.Errorf("ops_per_s = %v, want the median 25 of the kept windows", ops)
	}
}

// perturbDocument adds one to the first scheme's transaction count in a
// job result document.
func perturbDocument(resp *http.Response) error {
	if resp.StatusCode != http.StatusOK || resp.Request.Method != http.MethodPost {
		return nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var doc spec.ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	srs, err := doc.Cells[0].SchemeResults()
	if err != nil {
		return err
	}
	srs[0].Stats.Transactions++
	if doc.Cells[0].Results, err = json.Marshal(srs); err != nil {
		return err
	}
	if data, err = json.Marshal(doc); err != nil {
		return err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	resp.ContentLength = int64(len(data))
	resp.Header.Set("Content-Length", strconv.Itoa(len(data)))
	return nil
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(q1, 2.75) || !near(med, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestSelfTimes checks self time on a span tree with overlapping children.
func TestSelfTimes(t *testing.T) {
	spans := []otrace.Span{
		{Trace: "op", Service: benchService, Seq: 1, Name: "client", Start: 0, End: 100},
		{Trace: "op", Service: benchService, Seq: 2, Parent: "dirbench#1", Name: "server", Start: 10, End: 90},
		{Trace: "op", Service: "d", Seq: 1, Parent: "dirbench#2", Name: "queue", Start: 15, End: 25},
		{Trace: "op", Service: "d", Seq: 2, Parent: "dirbench#2", Name: "simulate", Start: 20, End: 50},
	}
	rows, perOp := selfTimes(spans)
	got := map[string]float64{}
	for _, r := range rows {
		got[r.layer] = float64(r.selfNS)
	}
	// server covers 80, its children's union 35; queue and simulate
	// overlap by 5, so the tree's self times sum to 105, of which 85 are
	// below the root.
	want := map[string]float64{"client": 20, "server": 45 + 10, "sim": 30}
	for layer, ns := range want {
		if !near(got[layer], ns) {
			t.Errorf("layer %s self %v, want %v", layer, got[layer], ns)
		}
	}
	if !near(perOp, 85/1e6) {
		t.Errorf("blocking-path layer sum %v ms, want 0.000085", perOp)
	}
}

// TestAccountingGate checks that layer self times outside the tolerance
// fail the run at the default sizes, and are only reported otherwise.
func TestAccountingGate(t *testing.T) {
	for _, c := range []struct {
		layers  float64
		enforce bool
		correct bool
	}{
		{layers: 1.9, enforce: true, correct: true},
		{layers: 1.0, enforce: true, correct: false},
		{layers: 3.0, enforce: true, correct: false},
		{layers: 1.0, enforce: false, correct: true},
	} {
		o := &outcome{values: map[string]float64{}}
		checkAccounted(o, c.layers, 2.0, c.layers, c.enforce)
		if o.correct() != c.correct {
			t.Errorf("layers %v against 2.0 (enforce %v): correct %v, want %v", c.layers, c.enforce, o.correct(), c.correct)
		}
		if want := math.Abs(c.layers-2) / 2; !near(o.values["trace.unaccounted_frac"], want) {
			t.Errorf("unaccounted_frac %v, want %v", o.values["trace.unaccounted_frac"], want)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
