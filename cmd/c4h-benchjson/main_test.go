package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: cloud4home
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScaleUp           	       1	  19565075 ns/op	        27.30 cached@4-MBps	         6.989 sequential@4-MBps	        14.70 striped@4-MBps
BenchmarkAblationDataCache-8 	       2	   1061877 ns/op	       132.0 hit-ms	      1269 miss-ms	     704 B/op	       1 allocs/op
PASS
ok  	cloud4home	0.023s
`

func TestParseBench(t *testing.T) {
	res, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if res.GOOS != "linux" || res.GOARCH != "amd64" {
		t.Errorf("context = %q/%q", res.GOOS, res.GOARCH)
	}
	if len(res.Benchmarks) != 2 {
		t.Fatalf("%d benchmarks, want 2", len(res.Benchmarks))
	}
	su := res.Benchmarks[0]
	if su.Name != "BenchmarkScaleUp" || su.Pkg != "cloud4home" || su.Iterations != 1 {
		t.Errorf("first bench parsed as %+v", su)
	}
	if su.Metrics["ns/op"] != 19565075 || su.Metrics["striped@4-MBps"] != 14.70 {
		t.Errorf("metrics = %v", su.Metrics)
	}
	dc := res.Benchmarks[1]
	if dc.Name != "BenchmarkAblationDataCache" || dc.Procs != 8 || dc.Iterations != 2 {
		t.Errorf("second bench parsed as %+v", dc)
	}
	if dc.Metrics["B/op"] != 704 || dc.Metrics["allocs/op"] != 1 {
		t.Errorf("benchmem metrics = %v", dc.Metrics)
	}
}

func TestParseBenchRejectsMalformedValue(t *testing.T) {
	if _, err := parseBench(strings.NewReader("BenchmarkX 1 zap ns/op\n")); err == nil {
		t.Fatal("malformed value accepted")
	}
}

func bench(name string, metrics map[string]float64) Benchmark {
	return Benchmark{Pkg: "cloud4home", Name: name, Iterations: 1, Metrics: metrics}
}

func TestDiffFlagsTimeRegression(t *testing.T) {
	oldRes := &Result{Benchmarks: []Benchmark{bench("BenchmarkA", map[string]float64{"total-ms": 100})}}
	newRes := &Result{Benchmarks: []Benchmark{bench("BenchmarkA", map[string]float64{"total-ms": 115})}}
	regs, compared := diffResults(oldRes, newRes, 0.10, 0.10, false)
	if compared != 1 || len(regs) != 1 {
		t.Fatalf("compared=%d regs=%v", compared, regs)
	}
	if regs[0].Metric != "total-ms" || regs[0].Delta < 0.14 || regs[0].Delta > 0.16 {
		t.Errorf("regression = %+v", regs[0])
	}
	// Getting faster is not a regression.
	newRes.Benchmarks[0].Metrics["total-ms"] = 80
	if regs, _ := diffResults(oldRes, newRes, 0.10, 0.10, false); len(regs) != 0 {
		t.Errorf("improvement flagged: %v", regs)
	}
}

func TestDiffFlagsThroughputDrop(t *testing.T) {
	oldRes := &Result{Benchmarks: []Benchmark{bench("BenchmarkB", map[string]float64{"agg-MBps": 20, "speedup": 2.0})}}
	newRes := &Result{Benchmarks: []Benchmark{bench("BenchmarkB", map[string]float64{"agg-MBps": 16, "speedup": 2.5})}}
	regs, compared := diffResults(oldRes, newRes, 0.10, 0.10, false)
	if compared != 2 {
		t.Fatalf("compared = %d, want 2", compared)
	}
	if len(regs) != 1 || regs[0].Metric != "agg-MBps" {
		t.Fatalf("regs = %v", regs)
	}
}

func TestDiffSkipsNeutralAndHostTimeMetrics(t *testing.T) {
	oldRes := &Result{Benchmarks: []Benchmark{bench("BenchmarkC",
		map[string]float64{"ns/op": 1000, "MB/s": 2000, "peakSize-MB": 20, "remote/home": 3})}}
	newRes := &Result{Benchmarks: []Benchmark{bench("BenchmarkC",
		map[string]float64{"ns/op": 9000, "MB/s": 1200, "peakSize-MB": 40, "remote/home": 9})}}
	if regs, compared := diffResults(oldRes, newRes, 0.10, 0.10, false); compared != 0 || len(regs) != 0 {
		t.Fatalf("gated on neutral/host metrics: compared=%d regs=%v", compared, regs)
	}
	// -all opts the host-time metrics in.
	regs, compared := diffResults(oldRes, newRes, 0.10, 0.10, true)
	if compared != 2 || len(regs) != 2 {
		t.Fatalf("-all: compared=%d regs=%v", compared, regs)
	}
}

// TestDiffSkipsHostPrefixedMetrics: a "host-" unit marks a host
// measurement whatever its suffix, so a doubled host wall time does not
// gate by default while the simulated metric beside it still does.
func TestDiffSkipsHostPrefixedMetrics(t *testing.T) {
	oldRes := &Result{Benchmarks: []Benchmark{bench("BenchmarkE",
		map[string]float64{"host-sweep-s": 1.0, "sweep-s": 1.0, "host-bytes-per-node": 300})}}
	newRes := &Result{Benchmarks: []Benchmark{bench("BenchmarkE",
		map[string]float64{"host-sweep-s": 2.0, "sweep-s": 1.0, "host-bytes-per-node": 900})}}
	regs, compared := diffResults(oldRes, newRes, 0.10, 0.10, false)
	if compared != 1 || len(regs) != 0 {
		t.Fatalf("host-prefixed metric gated by default: compared=%d regs=%v", compared, regs)
	}
	if !realTimeMetric("host-sweep-s") || realTimeMetric("sweep-s") {
		t.Fatal("realTimeMetric ignores the host- prefix")
	}
	// -all opts the host wall time in; the host byte gauge has no
	// direction and never gates.
	regs, compared = diffResults(oldRes, newRes, 0.10, 0.10, true)
	if compared != 2 || len(regs) != 1 || regs[0].Metric != "host-sweep-s" {
		t.Fatalf("-all: compared=%d regs=%v", compared, regs)
	}
}

func TestDiffGatesAllocMetricsByDefault(t *testing.T) {
	oldRes := &Result{Benchmarks: []Benchmark{bench("BenchmarkD",
		map[string]float64{"B/op": 1000, "allocs/op": 100, "ns/op": 5000})}}
	newRes := &Result{Benchmarks: []Benchmark{bench("BenchmarkD",
		map[string]float64{"B/op": 1200, "allocs/op": 101, "ns/op": 50000})}}
	// Without -all: both alloc metrics compared (ns/op skipped), only the
	// B/op +20% move breaks the 10% alloc threshold.
	regs, compared := diffResults(oldRes, newRes, 0.10, 0.10, false)
	if compared != 2 {
		t.Fatalf("compared = %d, want 2 (alloc metrics only)", compared)
	}
	if len(regs) != 1 || regs[0].Metric != "B/op" {
		t.Fatalf("regs = %v, want a single B/op regression", regs)
	}
	// The alloc threshold is separate: loosening it to 25% clears the gate
	// even with a tight general threshold.
	if regs, _ := diffResults(oldRes, newRes, 0.01, 0.25, false); len(regs) != 0 {
		t.Errorf("loose alloc threshold still flagged: %v", regs)
	}
	// Fewer allocations is an improvement, never a regression.
	newRes.Benchmarks[0].Metrics["B/op"] = 500
	newRes.Benchmarks[0].Metrics["allocs/op"] = 50
	if regs, _ := diffResults(oldRes, newRes, 0.10, 0.10, false); len(regs) != 0 {
		t.Errorf("alloc improvement flagged: %v", regs)
	}
}

func TestDiffSkipsBenchmarksMissingFromNewRun(t *testing.T) {
	oldRes := &Result{Benchmarks: []Benchmark{
		bench("BenchmarkGone", map[string]float64{"total-ms": 100}),
		bench("BenchmarkKept", map[string]float64{"total-ms": 50}),
	}}
	newRes := &Result{Benchmarks: []Benchmark{bench("BenchmarkKept", map[string]float64{"total-ms": 50})}}
	regs, compared := diffResults(oldRes, newRes, 0.10, 0.10, false)
	if compared != 1 || len(regs) != 0 {
		t.Fatalf("subset diff: compared=%d regs=%v", compared, regs)
	}
}
