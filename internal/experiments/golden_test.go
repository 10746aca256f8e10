package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current build")

const goldenSeed = 2011

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d is %q, golden has %q", name, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, golden has %d", name, len(gl), len(wl))
	}
}

// goldenRuns lists every experiment driver at its paper-mode default
// configuration (the one the benchmarks run), each returning the
// virtual-time part of its result. Host-side figures — wall clocks and
// heap bytes — are left out: they are not schedule-determined.
var goldenRuns = []struct {
	name string
	run  func() (any, error)
}{
	{"fig4", func() (any, error) { return RunFig4(DefaultFig4(goldenSeed)) }},
	{"table1", func() (any, error) { return RunTable1(DefaultTable1(goldenSeed)) }},
	{"fig5", func() (any, error) { return RunFig5(DefaultFig5(goldenSeed)) }},
	{"fig6", func() (any, error) { return RunFig6(DefaultFig6(goldenSeed)) }},
	{"split", func() (any, error) { return RunSplit(DefaultSplit(goldenSeed)) }},
	{"fig7", func() (any, error) { return RunFig7(DefaultFig7(goldenSeed)) }},
	{"fig8", func() (any, error) { return RunFig8(DefaultFig8(goldenSeed)) }},
	{"ablation_kvcache", func() (any, error) { return RunAblationKVCache(goldenSeed) }},
	{"ablation_replication", func() (any, error) { return RunAblationReplication(goldenSeed) }},
	{"ablation_blocking", func() (any, error) { return RunAblationBlocking(goldenSeed) }},
	{"ablation_pagesize", func() (any, error) { return RunAblationPageSize(goldenSeed) }},
	{"ablation_metadata", func() (any, error) { return RunAblationMetadata(goldenSeed) }},
	{"ablation_decision", func() (any, error) { return RunAblationDecision(goldenSeed) }},
	{"ablation_datacache", func() (any, error) { return RunAblationDataCache(goldenSeed) }},
	{"scale", func() (any, error) { return RunScale(DefaultScale(goldenSeed)) }},
	{"scaleup", func() (any, error) { return RunScaleUp(DefaultScaleUp(goldenSeed)) }},
	{"computescale", func() (any, error) { return RunComputeScaleUp(DefaultComputeScaleUp(goldenSeed)) }},
	{"availability", func() (any, error) { return RunAvailability(DefaultAvailability(goldenSeed)) }},
	{"federation", func() (any, error) { return RunFederation(DefaultFederation(goldenSeed)) }},
	{"hotpath", func() (any, error) {
		res, err := RunHotPath(DefaultHotPath(goldenSeed))
		if err != nil {
			return nil, err
		}
		return hotPathVirtual(res), nil
	}},
}

// TestRunGoldens runs every experiment driver and requires its result
// to equal, field for field, the JSON recorded in testdata from the
// simulator before its result-preserving gates were folded into the one
// code path: eager per-operation RNG seeding, per-router flat
// membership, and the broadcast-wakeup heap clock.
func TestRunGoldens(t *testing.T) {
	for _, g := range goldenRuns {
		g := g
		t.Run(g.name, func(t *testing.T) {
			res, err := g.run()
			if err != nil {
				t.Fatal(err)
			}
			out, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, g.name+".json", string(out)+"\n")
		})
	}
}

// hotPathGolden is the virtual-time part of a HotPathResult.
type hotPathGolden struct {
	Sweep    *ScaleUpResult
	Coalesce CoalesceResult
}

func hotPathVirtual(r *HotPathResult) hotPathGolden {
	return hotPathGolden{Sweep: r.Sweep, Coalesce: r.Coalesce}
}

// cityScaleGolden is the virtual-time part of a CityScaleResult.
type cityScaleGolden struct {
	Rows      []CityScaleMetrics
	SuperPeer CitySuperPeerCell
}

func cityScaleVirtual(r *CityScaleResult) cityScaleGolden {
	g := cityScaleGolden{SuperPeer: r.SuperPeer}
	for _, row := range r.Rows {
		g.Rows = append(g.Rows, row.Metrics)
	}
	return g
}
