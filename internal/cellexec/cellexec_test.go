package cellexec

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dirsim/internal/cluster"
	"dirsim/internal/coherence"
	"dirsim/internal/runner"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
	"dirsim/internal/tracegen"
)

func testCells(n int) []spec.Cell {
	cells := make([]spec.Cell, n)
	for i := range cells {
		tc := tracegen.POPS(2_000)
		tc.CPUs = 2
		tc.Seed = int64(i + 1)
		cells[i] = spec.Cell{Trace: tc, Schemes: []string{"dir0b", "dragon"}, Machine: coherence.Config{Caches: 2}}
	}
	return cells
}

// Local runs only the todo cells, reports them by their index into the
// whole batch in index order, and traces each under that index as pid;
// cells left out leave nil recorder slots.
func TestLocalRunsTodoByCellIndex(t *testing.T) {
	cells := testCells(4)
	sink := &Sink{Sample: 64}
	ex := Local(runner.Options{Workers: 2}, nil, sink)
	var got []int
	err := ex(context.Background(), cells, []int{1, 3}, func(i int, rs []sim.Result, err error) {
		if err != nil || len(rs) != 2 {
			t.Errorf("cell %d: %d results, err %v", i, len(rs), err)
		}
		got = append(got, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("reported cells %v, want [1 3] in order", got)
	}
	recs := sink.Recorders()
	if len(recs) != 4 || recs[0] != nil || recs[2] != nil {
		t.Fatalf("recorder slots = %v, want 4 with only 1 and 3 filled", recs)
	}
	for _, i := range []int{1, 3} {
		if recs[i] == nil || recs[i].Pid() != i {
			t.Errorf("recorder %d = %v, want pid %d", i, recs[i], i)
		}
	}

	// A second batch's pids continue after the first batch's cells.
	if _, err := Collect(context.Background(), ex, cells[:1]); err != nil {
		t.Fatal(err)
	}
	if recs := sink.Recorders(); len(recs) != 5 || recs[4].Pid() != 4 {
		t.Errorf("second batch recorder slots = %d, want its cell at pid 4", len(recs))
	}
}

// A fleet answer that does not convert back to results fails the batch:
// it must never pass as a cell with no results.
func TestFleetConversionErrorFailsBatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"x","status":"done"}`)) // done, but no cells
	}))
	defer ts.Close()
	mem := cluster.Membership{Peers: []cluster.Peer{{Addr: ts.URL}}}
	ex := Fleet(&cluster.Client{Membership: mem, Router: cluster.NewRouter(mem, nil)}, 2)
	reported := 0
	err := ex(context.Background(), testCells(2), nil, func(i int, rs []sim.Result, err error) {
		reported++
		if err == nil {
			t.Errorf("cell %d reported success with %d results", i, len(rs))
		}
	})
	if err == nil || !strings.Contains(err.Error(), "result has 0 cells") {
		t.Errorf("err = %v, want the conversion failure", err)
	}
	if reported != 2 {
		t.Errorf("onDone ran %d times, want once per cell", reported)
	}
}
