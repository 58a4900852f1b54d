package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dirsim/internal/atomicio"
	"dirsim/internal/blockid"
	"dirsim/internal/cluster"
	"dirsim/internal/coherence"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

// layerSample is what the layer microbenchmarks run on: trace configs and
// cells taken from the workload's own operations, so that each layer is
// timed on the inputs that workload gives it.
type layerSample struct {
	traces []tracegen.Config
	cells  []spec.Cell
}

// Bounds on the microbenchmarks' work: each sample trace is cut to
// sampleRefs references and the set to sampleTotal.
const (
	sampleRefs  = 200_000
	sampleTotal = 1_200_000
)

// sink keeps measured results alive so the compiler cannot drop the calls.
var sink any

// timeLoop calls fn until at least least has passed and returns the mean
// time per call.
func timeLoop(least time.Duration, fn func()) time.Duration {
	n := 0
	t0 := time.Now()
	for time.Since(t0) < least || n == 0 {
		fn()
		n++
	}
	return time.Since(t0) / time.Duration(n)
}

// allocsOf returns the heap objects and bytes one call of fn allocates.
func allocsOf(fn func()) (objs, bytes float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// microbenchmarks times each layer's exported entry points on the
// workload's sample and stores the per-layer values in o.
func microbenchmarks(ctx context.Context, cfg config, s layerSample, o *outcome) error {
	minT := time.Duration(cfg.sizes.LayerMillis) * time.Millisecond
	var cfgs []tracegen.Config
	total := 0
	for _, c := range s.traces {
		if total >= sampleTotal {
			break
		}
		c.Refs = min(c.Refs, sampleRefs)
		cfgs = append(cfgs, c)
		total += c.Refs
	}
	if len(cfgs) == 0 {
		return fmt.Errorf("empty sample")
	}

	// tracegen: whole-trace generation.
	traces := make([]trace.Slice, len(cfgs))
	var genErr error
	per := timeLoop(minT, func() {
		for i, c := range cfgs {
			t, err := tracegen.Generate(c)
			if err != nil {
				genErr = err
			}
			traces[i] = t
		}
	})
	if genErr != nil {
		return genErr
	}
	o.values["tracegen.mrefs_per_s"] = float64(total) / per.Seconds() / 1e6

	// blockid: one Intern per data reference, as the driver does.
	blocks := make([][]uint64, len(traces))
	dataRefs := 0
	for i, t := range traces {
		for _, r := range t {
			if r.Kind != trace.Instr {
				blocks[i] = append(blocks[i], trace.Block(r.Addr, trace.DefaultBlockBytes))
			}
		}
		dataRefs += len(blocks[i])
	}
	per = timeLoop(minT, func() {
		for _, bs := range blocks {
			tab := blockid.New()
			for _, b := range bs {
				tab.Intern(b)
			}
			sink = tab
		}
	})
	o.values["blockid.intern_ns_per_ref"] = float64(per.Nanoseconds()) / float64(dataRefs)
	per = timeLoop(minT, func() {
		for i := 0; i < 1000; i++ {
			sink = blockid.New()
		}
	})
	o.values["blockid.new_us"] = float64(per.Nanoseconds()) / 1000 / 1e3

	// coherence: AccessID over ids interned up front, so that only the
	// engine's own work is timed.
	type interned struct {
		tab    *blockid.Table
		ids    []blockid.ID
		firsts []bool
	}
	pre := make([]interned, len(traces))
	for i, bs := range blocks {
		p := interned{tab: blockid.New(), ids: make([]blockid.ID, len(bs)), firsts: make([]bool, len(bs))}
		for k, b := range bs {
			p.ids[k], p.firsts[k] = p.tab.Intern(b)
		}
		pre[i] = p
	}
	var newTotal time.Duration
	for _, scheme := range benchSchemes {
		var engErr error
		per := timeLoop(minT, func() {
			for i, t := range traces {
				e, err := coherence.NewByName(scheme, coherence.Config{Caches: cfgs[i].CPUs})
				if err != nil {
					engErr = err
					return
				}
				ie, ok := e.(coherence.IndexedEngine)
				if !ok || !ie.BindBlocks(pre[i].tab) {
					engErr = fmt.Errorf("%s is not an indexed engine", scheme)
					return
				}
				k := 0
				instrs := uint64(0)
				for _, r := range t {
					if r.Kind == trace.Instr {
						instrs++
						continue
					}
					ie.AccessID(int(r.CPU), r.Kind, blocks[i][k], pre[i].ids[k], pre[i].firsts[k])
					k++
				}
				ie.AccessInstrs(instrs)
				sink = e
			}
		})
		if engErr != nil {
			return engErr
		}
		o.values["coherence."+scheme+".ns_per_ref"] = float64(per.Nanoseconds()) / float64(total)
		newTotal += timeLoop(minT, func() {
			for i := 0; i < 100; i++ {
				e, err := coherence.NewByName(scheme, coherence.Config{Caches: cfgs[0].CPUs})
				if err != nil {
					engErr = err
				}
				sink = e
			}
		}) / 100
		if engErr != nil {
			return engErr
		}
	}
	o.values["coherence.new_us"] = float64(newTotal.Nanoseconds()) / float64(len(benchSchemes)) / 1e3

	// sim: the driver over in-memory traces, so no generation is timed.
	var results [][]sim.Result
	var simErr error
	runAll := func(schemes []string, keep bool) func() {
		return func() {
			for i, t := range traces {
				rs, err := sim.RunSchemes(ctx, trace.NewSliceReader(t), schemes, coherence.Config{Caches: cfgs[i].CPUs}, sim.Options{})
				if err != nil {
					simErr = err
				}
				if keep {
					results = append(results, rs)
				}
			}
		}
	}
	per = timeLoop(minT, runAll([]string{"dir0b"}, false))
	o.values["sim.single.mrefs_per_s"] = float64(total) / per.Seconds() / 1e6
	per = timeLoop(minT, runAll(paperSchemes, false))
	o.values["sim.lockstep.mrefs_per_s"] = float64(total*len(paperSchemes)) / per.Seconds() / 1e6
	objs, byts := allocsOf(func() {
		rs, err := sim.RunSchemes(ctx, trace.NewSliceReader(traces[0]), paperSchemes, coherence.Config{Caches: cfgs[0].CPUs}, sim.Options{})
		if err != nil {
			simErr = err
		}
		sink = rs
	})
	o.values["sim.allocs_per_run"], o.values["sim.bytes_per_run"] = objs, byts
	runAll(paperSchemes, true)()
	if simErr != nil {
		return simErr
	}

	// spec: the daemon's request path, on the workload's own cells.
	docSize, err := benchSpec(minT, s.cells, cfgs, results, o)
	if err != nil {
		return err
	}

	// atomicio: journal appends and durable writes of cell-document-sized
	// records in the benchmark's work directory.
	if err := benchAtomicio(filepath.Join(cfg.workDir, "atomicio-bench"), docSize, o); err != nil {
		return err
	}

	// cluster: rendezvous routing of the workload's cell hashes over a
	// three-daemon membership.
	mem := cluster.Membership{}
	for i := 0; i < 3; i++ {
		mem.Peers = append(mem.Peers, cluster.Peer{Addr: fmt.Sprintf("http://127.0.0.1:%d", 9000+i)})
	}
	router := cluster.NewRouter(mem, nil)
	hashes := make([]string, len(s.cells))
	for i, c := range s.cells {
		if hashes[i], err = c.Hash(); err != nil {
			return err
		}
	}
	per = timeLoop(minT, func() {
		for _, h := range hashes {
			sink = router.Order(h)
		}
	})
	o.values["cluster.route_ns"] = float64(per.Nanoseconds()) / float64(len(hashes))
	return nil
}

// benchSpec times the daemon's handling of each sample cell as a request —
// body decode, validate, canonicalize, hash — and the encoding of a cell
// document. It returns the mean encoded document size.
func benchSpec(minT time.Duration, cells []spec.Cell, cfgs []tracegen.Config, results [][]sim.Result, o *outcome) (int, error) {
	bodies := make([][]byte, len(cells))
	reqs := make([]spec.Request, len(cells))
	for i := range cells {
		b, err := json.Marshal(spec.Request{Cell: &cells[i]})
		if err != nil {
			return 0, err
		}
		bodies[i] = b
	}
	n := float64(len(cells))
	var specErr error
	per := timeLoop(minT, func() {
		for i, b := range bodies {
			// A fresh value per request, as the daemon's handler decodes.
			var req spec.Request
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				specErr = err
			}
			reqs[i] = req
		}
	})
	o.values["spec.decode_us"] = float64(per.Nanoseconds()) / n / 1e3
	per = timeLoop(minT, func() {
		for _, r := range reqs {
			if err := r.Validate(); err != nil {
				specErr = err
			}
		}
	})
	o.values["spec.validate_us"] = float64(per.Nanoseconds()) / n / 1e3
	per = timeLoop(minT, func() {
		for _, r := range reqs {
			b, err := r.Canonical()
			if err != nil {
				specErr = err
			}
			sink = b
		}
	})
	o.values["spec.canonical_us"] = float64(per.Nanoseconds()) / n / 1e3
	per = timeLoop(minT, func() {
		for _, r := range reqs {
			h, err := r.Hash()
			if err != nil {
				specErr = err
			}
			sink = h
		}
	})
	o.values["spec.hash_us"] = float64(per.Nanoseconds()) / n / 1e3
	objs, _ := allocsOf(func() {
		for _, r := range reqs {
			h, err := r.Hash()
			if err != nil {
				specErr = err
			}
			sink = h
		}
	})
	o.values["spec.allocs_per_hash"] = objs / n
	if specErr != nil {
		return 0, specErr
	}

	// Cell documents as the daemon encodes them: the scheme results, then
	// the document around the cell's canonical spec.
	canons := make([][]byte, len(results))
	for i := range results {
		c := cells[i%len(cells)]
		c.Trace = cfgs[i]
		b, err := c.Canonical()
		if err != nil {
			return 0, err
		}
		canons[i] = b
	}
	size := 0
	per = timeLoop(minT, func() {
		size = 0
		for i, rs := range results {
			raw, err := json.Marshal(localResults(rs))
			if err != nil {
				specErr = err
			}
			doc, err := json.Marshal(spec.CellDoc{SpecVersion: spec.CurrentVersion, Spec: canons[i], Results: raw})
			if err != nil {
				specErr = err
			}
			size += len(doc)
		}
	})
	o.values["spec.cell_doc_encode_us"] = float64(per.Nanoseconds()) / float64(len(results)) / 1e3
	return size / len(results), specErr
}

// benchAtomicio times durable journal appends and whole-file writes of
// size-byte records in dir, and removes what it wrote.
func benchAtomicio(dir string, size int, o *outcome) error {
	const writes = 16
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rec := bytes.Repeat([]byte{'x'}, size)
	j, err := atomicio.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < writes; i++ {
		if err := j.Append(rec); err != nil {
			j.Close()
			return err
		}
	}
	o.values["atomicio.journal_append_us"] = float64(time.Since(t0).Nanoseconds()) / writes / 1e3
	if err := j.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < writes; i++ {
		if err := atomicio.WriteFile(filepath.Join(dir, fmt.Sprintf("doc%d.json", i)), rec); err != nil {
			return err
		}
	}
	o.values["atomicio.writefile_us"] = float64(time.Since(t0).Nanoseconds()) / writes / 1e3
	return nil
}
