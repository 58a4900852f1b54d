package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of vals
// by the method Python's statistics.quantiles(vals, n=4) uses (the
// "exclusive" method), so that spreads printed here match the ones a
// driver computes from the same values.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	n, m := 4, len(d)+1
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), len(d)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(float64(n)-delta) + d[j]*delta) / float64(n)
	}
	return q[0], q[1], q[2]
}

// percentile returns the p-th percentile (0 ≤ p ≤ 1) of vals by linear
// interpolation between the closest ranks; 0 for an empty sample.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	pos := p * float64(len(d)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(d)-1)
	return d[lo] + (d[hi]-d[lo])*(pos-float64(lo))
}

// median is percentile 0.5.
func median(vals []float64) float64 { return percentile(vals, 0.5) }

// maxRSSMB is the process's peak resident set so far, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// Runtime metrics read around a timed phase.
const (
	rmGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU    = "/cpu/classes/total:cpu-seconds"
	rmAllocBytes  = "/gc/heap/allocs:bytes"
	rmAllocObjs   = "/gc/heap/allocs:objects"
	rmHeapObjects = "/memory/classes/heap/objects:bytes"
)

// runtimeProbe brackets a timed phase: allocation and GC CPU deltas, and
// the peak heap sampled every few milliseconds while the phase runs.
type runtimeProbe struct {
	start [4]float64
	stop  chan struct{}
	done  chan uint64
}

// runtimeDelta is what a probe measured.
type runtimeDelta struct {
	gcCPU, totalCPU      float64
	allocBytes, allocObj float64
	peakHeap             uint64
}

func readRuntime() [4]float64 {
	s := []metrics.Sample{{Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmAllocBytes}, {Name: rmAllocObjs}}
	metrics.Read(s)
	var out [4]float64
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		}
	}
	return out
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: rmHeapObjects}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startProbe() *runtimeProbe {
	p := &runtimeProbe{start: readRuntime(), stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		peak := heapObjects()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				p.done <- max(peak, heapObjects())
				return
			case <-t.C:
				peak = max(peak, heapObjects())
			}
		}
	}()
	return p
}

// end stops the sampler and returns the deltas since startProbe.
func (p *runtimeProbe) end() runtimeDelta {
	close(p.stop)
	peak := <-p.done
	now := readRuntime()
	return runtimeDelta{
		gcCPU:      now[0] - p.start[0],
		totalCPU:   now[1] - p.start[1],
		allocBytes: now[2] - p.start[2],
		allocObj:   now[3] - p.start[3],
		peakHeap:   peak,
	}
}

// cpuTicks is the machine-wide total and stolen CPU time from /proc/stat.
type cpuTicks struct{ total, steal float64 }

// readSteal reads the aggregate cpu line of /proc/stat; where there is
// none it reads zero and the steal share reports zero.
func readSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return cpuTicks{}
		}
		// guest and guest_nice (fields 9 and 10) are already counted in user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since is the share of CPU time stolen between t0 and t.
func (t cpuTicks) since(t0 cpuTicks) float64 {
	if d := t.total - t0.total; d > 0 {
		return (t.steal - t0.steal) / d
	}
	return 0
}

// stealSample is the machine's CPU counters at one instant.
type stealSample struct {
	at    int64 // ns
	ticks cpuTicks
}

// stealSampler reads /proc/stat every 100ms while a timed phase runs, so
// that each window's share of stolen CPU time can be told afterwards.
type stealSampler struct {
	samples []stealSample
	stop    chan struct{}
	done    chan struct{}
}

func startSteal() *stealSampler {
	s := &stealSampler{
		samples: []stealSample{{at: nanotime(), ticks: readSteal()}},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.samples = append(s.samples, stealSample{at: nanotime(), ticks: readSteal()})
				return
			case <-t.C:
				s.samples = append(s.samples, stealSample{at: nanotime(), ticks: readSteal()})
			}
		}
	}()
	return s
}

// end stops the sampler; its samples may be read once end returns.
func (s *stealSampler) end() {
	close(s.stop)
	<-s.done
}

// between is the share of CPU time stolen from the last sample at or
// before a to the first sample at or after b.
func (s *stealSampler) between(a, b int64) float64 {
	i := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].at > a }) - 1
	j := sort.Search(len(s.samples), func(j int) bool { return s.samples[j].at >= b })
	i, j = max(i, 0), min(j, len(s.samples)-1)
	return s.samples[j].ticks.since(s.samples[i].ticks)
}
