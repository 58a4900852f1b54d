package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"

	"dirsim/internal/runner"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
)

// golden holds, per workload, the digest of the Stats the workload's
// golden prefix produces at defaultSeed and defaultSizes (see each
// workload's goldenDigest). A change to any engine's tallies, to the
// trace generator or to the Stats encoding moves it.
//
//go:embed golden.json
var goldenJSON []byte

func goldenFor(workload string) (string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", fmt.Errorf("golden.json: %w", err)
	}
	return g[workload], nil
}

// checkGolden compares a workload's golden-prefix digest with the recorded
// value, where the run used the seed and sizes it was recorded at.
func checkGolden(cfg config, digest string, o *outcome) {
	if cfg.seed != defaultSeed || cfg.sizes != defaultSizes() {
		return
	}
	want, err := goldenFor(cfg.workload)
	switch {
	case err != nil:
		o.failRun("%v", err)
	case want != digest:
		o.failRun("golden digest mismatch at seed %d: got %s, want %s", cfg.seed, digest, want)
	default:
		o.note("stats digest matches the golden value %.16s…", digest)
	}
}

// localResults converts local results to the daemon's wire type, so that
// both sides of a comparison are encoded alike.
func localResults(rs []sim.Result) []spec.SchemeResult {
	out := make([]spec.SchemeResult, len(rs))
	for i, r := range rs {
		out[i] = spec.SchemeResult{Scheme: r.Scheme, Stats: r.Stats}
	}
	return out
}

// statsDigest hashes the scheme names and Stats of one cell's results.
func statsDigest(rs []spec.SchemeResult) (string, error) {
	data, err := json.Marshal(rs)
	if err != nil {
		return "", fmt.Errorf("encoding stats: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// digestOf hashes a sequence of per-cell digests into one.
func digestOf(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifyAccounting runs sim.VerifyAccounting on every result and checks
// there is one result per scheme.
func verifyAccounting(rs []sim.Result, schemes int) error {
	if len(rs) != schemes {
		return fmt.Errorf("%d results for %d schemes", len(rs), schemes)
	}
	for _, r := range rs {
		if err := sim.VerifyAccounting(r); err != nil {
			return err
		}
	}
	return nil
}

// checkServedDoc is the oracle for a document a daemon served for one
// cell: it must hold exactly that cell, pass spec.VerifyCellDoc under the
// cell's own content address, and every scheme's result must pass
// sim.VerifyAccounting. It returns the Stats digest, which the caller
// compares with a local run of the same cell.
func checkServedDoc(doc *spec.ResultDoc, cell spec.Cell, cellHash string) (string, error) {
	if doc == nil || len(doc.Cells) != 1 {
		return "", fmt.Errorf("document does not hold exactly one cell")
	}
	cd, err := json.Marshal(spec.CellDoc{SpecVersion: doc.SpecVersion, Spec: doc.Cells[0].Spec, Results: doc.Cells[0].Results})
	if err != nil {
		return "", err
	}
	if err := spec.VerifyCellDoc(cellHash, cd); err != nil {
		return "", err
	}
	srs, err := doc.Cells[0].SchemeResults()
	if err != nil {
		return "", err
	}
	rs := make([]sim.Result, len(srs))
	for i, sr := range srs {
		if sr.Stats == nil {
			return "", fmt.Errorf("scheme %s has no stats", sr.Scheme)
		}
		if rs[i], err = sim.RemoteResult(sr.Scheme, cell.Machine, sr.Stats); err != nil {
			return "", err
		}
	}
	if err := verifyAccounting(rs, len(cell.Schemes)); err != nil {
		return "", err
	}
	return statsDigest(srs)
}

// localBatch is how many cells localDigests runs at once. Only the
// batch's results are held, so the reference runs of a long serve-mixed
// phase add little to the heap the phase left behind.
const localBatch = 256

// localDigests runs cells locally — spec.Cell.Job on the runner pool, the
// path cmd/sweep takes — and returns each cell's Stats digest. It is the
// reference the served documents are compared with.
func localDigests(ctx context.Context, cells []spec.Cell) ([]string, error) {
	out := make([]string, 0, len(cells))
	for lo := 0; lo < len(cells); lo += localBatch {
		batch := cells[lo:min(lo+localBatch, len(cells))]
		jobs := make([]runner.Job, len(batch))
		for i, c := range batch {
			j, err := c.Job()
			if err != nil {
				return nil, err
			}
			jobs[i] = j
		}
		rss, err := runner.Run(ctx, jobs, runner.Options{Workers: runtime.NumCPU()})
		if err != nil {
			return nil, err
		}
		for i, rs := range rss {
			if err := verifyAccounting(rs, len(batch[i].Schemes)); err != nil {
				return nil, fmt.Errorf("local run of %s: %w", batch[i].Label(), err)
			}
			d, err := statsDigest(localResults(rs))
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
	}
	return out, nil
}
