// Command perfbench is the repository's benchmark: four workloads that
// drive the home cloud through its public and internal APIs with default
// options, check every output, and print one JSON result line.
//
//	bash _perfbench/run.sh --workload city-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reruns the workload with a span around every call the benchmark makes
// into a layer, writes the spans as Chrome trace-event JSON, and reports
// the per-layer metrics. README.md in this directory documents the
// workloads, metrics and measured spreads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// config is one run's inputs.
type config struct {
	seed    int64
	seconds int
	trace   bool
	tiny    bool // tests: shrink every input so a workload runs in well under a second
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config, *tracer) (*result, error){
	"home-trace":    runHomeTrace,
	"city-read":     runCityRead,
	"media-process": runMediaProcess,
	"daemon-rpc":    runDaemonRPC,
}

// metricSpec is a reported metric's name and unit.
type metricSpec struct{ name, unit string }

// endToEnd is every metric a --trace 0 run reports, on every workload.
// Latencies are what the workload's users wait for: virtual time on the
// three virtual-clock workloads, wall time on daemon-rpc.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"mem_mb", "MB"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"mb_per_s", "MB/s"},
}

// perLayer is every metric a --trace 1 run reports. A workload whose
// calls never reach a layer reports that layer's metrics as 0.
var perLayer = []metricSpec{
	{"core.store_host_us", "us"},
	{"core.fetch_host_us", "us"},
	{"core.process_host_us", "us"},
	{"core.store_virt_p50_ms", "ms"},
	{"core.store_virt_tail_ms", "ms"},
	{"core.fetch_virt_p50_ms", "ms"},
	{"core.fetch_virt_tail_ms", "ms"},
	{"core.process_virt_p50_ms", "ms"},
	{"core.process_virt_tail_ms", "ms"},
	{"core.placement_virt_ms", "ms"},
	{"core.store_cloud_share", "ratio"},
	{"core.fetch_cloud_share", "ratio"},
	{"core.input_move_virt_ms", "ms"},
	{"core.output_move_virt_ms", "ms"},
	{"core.process_remote_share", "ratio"},
	{"kv.lookups_per_op", "count"},
	{"kv.cache_hit_ratio", "ratio"},
	{"kv.hops_per_lookup", "count"},
	{"kv.dht_lookup_virt_ms", "ms"},
	{"kv.get_host_us", "us"},
	{"kv.lookups_per_store", "count"},
	{"overlay.join_host_ms", "ms"},
	{"overlay.route_host_us", "us"},
	{"overlay.route_hops", "count"},
	{"netsim.msgs_per_op", "count"},
	{"netsim.transfers_per_op", "count"},
	{"netsim.wire_bytes_per_user_byte", "ratio"},
	{"netsim.internode_virt_ms", "ms"},
	{"vclock.virt_s_per_host_s", "ratio"},
	{"xenchan.interdomain_virt_ms", "ms"},
	{"xenchan.transfer_host_us_per_mb", "us/MB"},
	{"objstore.bytes_per_user_byte", "ratio"},
	{"objstore.get_host_us_per_mb", "us/MB"},
	{"cloudsim.requests_per_op", "count"},
	{"cloudsim.mb_up", "MB"},
	{"cloudsim.mb_down", "MB"},
	{"cloudsim.usd", "USD"},
	{"services.fdet_host_ms_per_mb", "ms/MB"},
	{"services.frec_host_ms_per_mb", "ms/MB"},
	{"services.x264_host_ms_per_mb", "ms/MB"},
	{"machine.exec_virt_ms", "ms"},
	{"policy.decision_virt_ms", "ms"},
	{"daemon.server_ms", "ms"},
	{"daemon.overhead_ms", "ms"},
	{"daemon.dial_ms", "ms"},
	{"command.codec_ns", "ns"},
	{"host.cpu_ms_per_op", "ms"},
	{"host.alloc_kb_per_op", "KB"},
	{"host.gc_per_kop", "count"},
	{"trace.overhead", "ratio"},
	{"trace.spans", "count"},
}

func main() {
	// One P: the simulator's goroutines hand off to each other through
	// the virtual clock, and with two Ps each handoff is a cross-CPU
	// wakeup. On a 2-CPU host that made home-trace's ops_per_s vary 12%
	// between runs of one seed, against under 1% on one P (which is also
	// faster). A speedup that needs parallelism therefore does not show
	// here.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: home-trace, city-read, media-process or daemon-rpc")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "length of the timed phase in host seconds (sets the op count of virtual-clock workloads)")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || *seconds > 600 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds 1..600 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	tr := newTracer(cfg.trace)
	res, err := drive(cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.trace {
		spans := tr.snapshot()
		res.add("trace.spans", "count", float64(len(spans)))
		if err := checkSpans(spans); err != nil {
			res.check(false, "trace: %v", err)
		}
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := writeChrome(path, spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans), path)
		printLayers(stdout, spans)
	}
	line, err := report(stdout, *name, res, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints every metric with its unit and sample count, then
// returns the JSON result line for the mode's metric set.
func report(w io.Writer, name string, res *result, traced bool) ([]byte, error) {
	fmt.Fprintf(w, "workload %s\n", name)
	for _, m := range res.metrics {
		extra := ""
		if m.samples > 0 {
			extra = fmt.Sprintf("  (%s of %d samples)", m.note, m.samples)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s%s\n", m.name, m.value, m.unit, extra)
	}
	kinds := make([]string, 0, len(res.attempted))
	for k := range res.attempted {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  ops %-10s attempted %d failed %d\n", k, res.attempted[k], res.failed[k])
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	metrics := map[string]value{}
	var missing []string
	for _, s := range specs {
		m, ok := res.lookup(s.name)
		switch {
		case ok && m.unit != s.unit:
			return nil, fmt.Errorf("metric %s has unit %s, want %s", s.name, m.unit, s.unit)
		case !ok && !traced:
			missing = append(missing, s.name)
		}
		metrics[s.name] = value{m.value, s.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("no value for %v", missing)
	}
	attempted, failed := res.totals()
	if attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.problems) == 0, attempted, failed, metrics})
}

// printLayers prints count, total and self time per span name.
func printLayers(w io.Writer, spans []span) {
	agg := aggregate(spans)
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-40s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		st := agg[n]
		fmt.Fprintf(w, "  %-40s %9d %12.3f %12.3f\n", n, st.count, ms(st.total), ms(st.self))
	}
}
