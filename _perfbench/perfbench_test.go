package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// runTiny runs a workload at test size and decodes its result line.
func runTiny(t *testing.T, name string, traced bool, tr *tracer) (*result, map[string]any) {
	t.Helper()
	res, err := workloads[name](config{seed: 7, seconds: 1, trace: traced, tiny: true}, tr)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out bytes.Buffer
	line, err := report(&out, name, res, traced)
	if err != nil {
		t.Fatalf("%s: report: %v\n%s", name, err, out.String())
	}
	var got map[string]any
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("%s: result line is not JSON: %v", name, err)
	}
	if got["correct"] != true || got["failed"] != float64(0) {
		t.Fatalf("%s: correct=%v failed=%v\n%s", name, got["correct"], got["failed"], out.String())
	}
	return res, got
}

// checkNames requires exactly the given metrics, each with its unit.
func checkNames(t *testing.T, name string, got map[string]any, specs []metricSpec, nonzero bool) {
	t.Helper()
	metrics := got["metrics"].(map[string]any)
	if len(metrics) != len(specs) {
		t.Errorf("%s: %d metrics, want %d", name, len(metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := metrics[s.name].(map[string]any)
		if !ok {
			t.Errorf("%s: metric %s missing", name, s.name)
			continue
		}
		if m["unit"] != s.unit {
			t.Errorf("%s: %s unit %v, want %s", name, s.name, m["unit"], s.unit)
		}
		if nonzero && m["value"] == float64(0) {
			t.Errorf("%s: %s is 0", name, s.name)
		}
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			_, got := runTiny(t, name, false, newTracer(false))
			checkNames(t, name, got, endToEnd, true)

			tr := newTracer(true)
			_, got = runTiny(t, name, true, tr)
			checkNames(t, name, got, perLayer, false)
			spans := tr.snapshot()
			if len(spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			if err := checkSpans(spans); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := writeChrome(path, spans); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != len(spans) {
				t.Fatalf("span file holds %d events (err %v), want %d", len(doc.TraceEvents), err, len(spans))
			}
		})
	}
}

func TestTracingOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	if id := tr.begin("x", 0, 0, 0); id != 0 {
		t.Fatalf("disabled tracer handed out span %d", id)
	}
	runTiny(t, "media-process", false, tr)
	if n := len(tr.snapshot()); n != 0 {
		t.Fatalf("disabled tracer recorded %d spans", n)
	}
}

func TestVirtualMetricsRepeat(t *testing.T) {
	virtual := []string{"lat_p50_ms", "lat_tail_ms", "mb_per_s"}
	for _, name := range []string{"home-trace", "city-read", "media-process"} {
		a, _ := runTiny(t, name, false, newTracer(false))
		b, _ := runTiny(t, name, false, newTracer(false))
		for _, m := range virtual {
			x, _ := a.lookup(m)
			y, _ := b.lookup(m)
			if x.value != y.value {
				t.Errorf("%s: %s is %v then %v on one seed", name, m, x.value, y.value)
			}
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	cfg := config{seconds: 1, tiny: true}
	gens := map[string]func(seed int64) any{
		"home-trace": func(seed int64) any {
			trs, seeds, err := genHomeTraces(seed, homeSizesFor(cfg))
			if err != nil {
				t.Fatal(err)
			}
			return []any{trs, seeds}
		},
		"city-read": func(seed int64) any { return genCity(seed, citySizesFor(cfg)) },
		"media-process": func(seed int64) any {
			in, err := genMedia(seed, mediaSizesFor(cfg), 6)
			if err != nil {
				t.Fatal(err)
			}
			return in
		},
		"daemon-rpc": func(seed int64) any { return genDaemon(seed, daemonSizesFor(cfg)) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(1), gen(1)) {
			t.Errorf("%s: one seed gave two different inputs", name)
		}
		if reflect.DeepEqual(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

func TestCheckSpans(t *testing.T) {
	ms := time.Millisecond
	good := []span{
		{name: "op", start: 0, end: 10 * ms},
		{name: "a", start: 1 * ms, end: 6 * ms, parent: 1},
		{name: "b", start: 4 * ms, end: 9 * ms, parent: 1},
	}
	if err := checkSpans(good); err != nil {
		t.Fatal(err)
	}
	// Overlapping children cover 1..9 ms once, not twice.
	if self := selfTimes(good); self[0] != 2*ms || self[1] != 5*ms {
		t.Fatalf("self times %v", self)
	}
	bad := map[string][]span{
		"open":    {{name: "op", start: 0, end: -1}},
		"outside": {{name: "op", start: 0, end: 5 * ms}, {name: "a", start: 4 * ms, end: 6 * ms, parent: 1}},
		"parent":  {{name: "op", start: 0, end: 5 * ms, parent: 3}},
	}
	for name, spans := range bad {
		if checkSpans(spans) == nil {
			t.Errorf("%s: malformed spans passed", name)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{5, 20, 100, 1000, 20000} {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(i + 1)
		}
		s := summarize(ds)
		beyond := 0
		for _, d := range ds {
			if d > s.tail {
				beyond++
			}
		}
		if n >= 20 && beyond < 10 {
			t.Errorf("n=%d: tail p%g has %d samples beyond it", n, s.tailPct, beyond)
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s, the benchmark %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames())
	}
}
