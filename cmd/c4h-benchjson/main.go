// Command c4h-benchjson converts `go test -bench` output into a
// machine-readable JSON document. It reads the benchmark stream on
// stdin, passes it through unchanged to stdout (so it can sit in a
// pipeline without hiding the human-readable results), and writes the
// parsed form to the file named by -o.
//
// Usage:
//
//	go test -bench=. -benchmem -benchtime=1x ./... | c4h-benchjson -o BENCH_baseline.json
//
// The diff subcommand compares two converted files and exits non-zero
// when any directional metric regressed past the threshold. Allocation
// metrics (B/op, allocs/op) are deterministic on the virtual-time
// testbed and gate by default under their own -alloc-threshold; only the
// host metrics (ns/op, MB/s and any unit prefixed "host-") need -all to
// opt in:
//
//	c4h-benchjson diff [-threshold 0.10] [-alloc-threshold 0.10] [-all] BENCH_baseline.json bench-new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is the whole converted stream.
type Result struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark line. Metrics map unit → value and include
// ns/op, the -benchmem B/op and allocs/op pairs, and every custom
// b.ReportMetric unit.
type Benchmark struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

var procSuffix = regexp.MustCompile(`-(\d+)$`)

// parseBench consumes a `go test -bench` stream and returns the parsed
// document. Non-benchmark lines (test PASS/ok chatter) are ignored.
func parseBench(r io.Reader) (*Result, error) {
	res := &Result{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			res.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			res.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			res.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		b := Benchmark{Pkg: pkg, Name: fields[0], Metrics: map[string]float64{}}
		if m := procSuffix.FindStringSubmatch(b.Name); m != nil {
			b.Procs, _ = strconv.Atoi(m[1])
			b.Name = strings.TrimSuffix(b.Name, m[0])
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // header or malformed line
		}
		b.Iterations = iters
		// The remainder alternates value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %q: bad value %q", b.Name, fields[i])
			}
			b.Metrics[fields[i+1]] = v
		}
		res.Benchmarks = append(res.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// metricDirection classifies a metric unit: -1 means lower is better
// (time-like), +1 means higher is better (throughput-like), 0 means the
// metric is informational (sizes, ambiguous ratios, counts) and never
// gates the diff. The simulated-time metrics the experiments report are
// deterministic, so the threshold only absorbs intentional model changes.
func metricDirection(unit string) int {
	switch unit {
	case "ns/op", "B/op", "allocs/op":
		return -1
	}
	for _, suf := range []string{"-s", "-ms", "-us", "-ns"} {
		if strings.HasSuffix(unit, suf) {
			return -1
		}
	}
	if strings.Contains(unit, "MBps") || strings.Contains(unit, "MB/s") ||
		strings.Contains(unit, "speedup") || strings.HasSuffix(unit, "-%") {
		return 1
	}
	return 0
}

// realTimeMetric reports units that measure the host rather than the
// simulation — too noisy to gate on by default. ns/op and the bare
// "MB/s" unit (testing's b.SetBytes throughput) are the testing
// package's own; a benchmark marks any custom host metric explicitly
// with a "host-" unit prefix, because the unit's suffix alone cannot
// tell host wall seconds ("host-sweep-s") from simulated ones
// ("total-s"). The simulated throughput metrics use custom
// "...-MBps"/"...-MB/s" units and stay gated.
func realTimeMetric(unit string) bool {
	return unit == "ns/op" || unit == "MB/s" || strings.HasPrefix(unit, "host-")
}

// allocMetric reports the -benchmem allocator metrics. Unlike wall
// clock, allocation counts on the deterministic testbed are stable, so
// these gate by default (lower is better) under their own threshold.
func allocMetric(unit string) bool {
	return unit == "B/op" || unit == "allocs/op"
}

// Regression is one metric that moved in the worse direction past the
// threshold.
type Regression struct {
	Bench  string
	Metric string
	Old    float64
	New    float64
	Delta  float64 // signed relative change, (new-old)/old
}

// diffResults compares the intersection of (benchmark, metric) pairs.
// Benchmarks missing from the new run are skipped, so a subset run can
// be diffed against the full baseline. Allocation metrics gate against
// allocThreshold, everything else against threshold. Returns the
// regressions and the number of gated comparisons made.
func diffResults(oldRes, newRes *Result, threshold, allocThreshold float64, all bool) (regs []Regression, compared int) {
	key := func(b Benchmark) string { return b.Pkg + "\x00" + b.Name }
	newBy := map[string]Benchmark{}
	for _, b := range newRes.Benchmarks {
		newBy[key(b)] = b
	}
	for _, ob := range oldRes.Benchmarks {
		nb, ok := newBy[key(ob)]
		if !ok {
			continue
		}
		units := make([]string, 0, len(ob.Metrics))
		for unit := range ob.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			ov := ob.Metrics[unit]
			nv, ok := nb.Metrics[unit]
			if !ok || ov == 0 {
				continue
			}
			dir := metricDirection(unit)
			if dir == 0 || (realTimeMetric(unit) && !all) {
				continue
			}
			compared++
			th := threshold
			if allocMetric(unit) {
				th = allocThreshold
			}
			delta := (nv - ov) / ov
			if float64(dir)*delta < -th {
				regs = append(regs, Regression{
					Bench: ob.Name, Metric: unit, Old: ov, New: nv, Delta: delta,
				})
			}
		}
	}
	return regs, compared
}

func readResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return &res, nil
}

func diffMain(argv []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.10, "relative regression threshold")
	allocThreshold := fs.Float64("alloc-threshold", 0.10, "relative regression threshold for B/op and allocs/op")
	all := fs.Bool("all", false, "also gate on the noisy host metrics (ns/op, MB/s, host-*)")
	_ = fs.Parse(argv)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: c4h-benchjson diff [-threshold 0.10] [-alloc-threshold 0.10] [-all] old.json new.json")
		return 2
	}
	oldRes, err := readResult(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	newRes, err := readResult(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	regs, compared := diffResults(oldRes, newRes, *threshold, *allocThreshold, *all)
	for _, r := range regs {
		fmt.Printf("REGRESSION %s %s: %g -> %g (%+.1f%%)\n",
			r.Bench, r.Metric, r.Old, r.New, 100*r.Delta)
	}
	fmt.Printf("benchjson diff: %d metrics compared, %d regressions (threshold %.0f%%)\n",
		compared, len(regs), 100**threshold)
	if len(regs) > 0 {
		return 1
	}
	return 0
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(diffMain(os.Args[2:]))
	}
	out := flag.String("o", "", "write JSON to this file (default stdout only)")
	flag.Parse()

	// Pass the stream through while capturing it for parsing.
	var buf strings.Builder
	if _, err := io.Copy(io.MultiWriter(os.Stdout, &buf), os.Stdin); err != nil {
		log.Fatal(err)
	}
	res, err := parseBench(strings.NewReader(buf.String()))
	if err != nil {
		log.Fatal(err)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(res.Benchmarks), *out)
}
