package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named number a run reports. samples is how many
// observations it summarises (0 for a single measurement).
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
	note    string // e.g. which percentile a tail is
}

// result is what one workload run produces.
type result struct {
	metrics   []metric
	attempted map[string]int64 // per op type
	failed    map[string]int64
	problems  []string // failed output checks; any one makes the run incorrect
}

func newResult() *result {
	return &result{attempted: map[string]int64{}, failed: map[string]int64{}}
}

func (r *result) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
}

func (r *result) addN(name, unit string, value float64, samples int, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, samples: samples, note: note})
}

// op records one attempted operation of the given type and whether it
// failed. Nothing is retried: a failure is counted and the run goes on.
func (r *result) op(kind string, err error) {
	r.attempted[kind]++
	if err != nil {
		r.failed[kind]++
	}
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) totals() (attempted, failed int64) {
	for k, n := range r.attempted {
		attempted += n
		failed += r.failed[k]
	}
	return attempted, failed
}

// lookup returns the named metric.
func (r *result) lookup(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.99, 99.95, 99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// latencySummary is a median and a tail of one sample set.
type latencySummary struct {
	n         int
	p50, tail time.Duration
	tailPct   float64
}

// summarize returns the median and the highest ladder percentile that
// has at least ten samples beyond it (the median when there are fewer
// than twenty samples).
func summarize(ds []time.Duration) latencySummary {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := latencySummary{n: len(s), tailPct: 50}
	if len(s) == 0 {
		return out
	}
	out.p50 = percentile(s, 50)
	for _, p := range tailLadder {
		if float64(len(s))*(100-p)/100 >= 10 {
			out.tailPct = p
			break
		}
	}
	out.tail = percentile(s, out.tailPct)
	return out
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	rank := int(p/100*float64(len(sorted))+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// addLatency reports a summary as <prefix>_p50_ms and <prefix>_tail_ms.
func (r *result) addLatency(prefix string, ds []time.Duration) {
	s := summarize(ds)
	r.addN(prefix+"_p50_ms", "ms", ms(s.p50), s.n, "p50")
	r.addN(prefix+"_tail_ms", "ms", ms(s.tail), s.n, fmt.Sprintf("p%g", s.tailPct))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// hostSample is the process's cumulative CPU time, allocation and GC
// counters at one instant.
type hostSample struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func sampleHost() hostSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; on a
	// platform where it did, CPU time would read zero.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
	}
}

// addHost reports the host cost per operation between two samples.
func (r *result) addHost(a, b hostSample, ops int64) {
	n := float64(ops)
	if n == 0 {
		n = 1
	}
	r.add("host.cpu_ms_per_op", "ms", ms(b.cpu-a.cpu)/n)
	r.add("host.alloc_kb_per_op", "KB", float64(b.alloc-a.alloc)/1024/n)
	r.add("host.gc_per_kop", "count", float64(b.gcs-a.gcs)*1000/n)
}

// liveHeapMB forces a collection and returns the live heap in MiB. The
// caller keeps the built system reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
