package experiments

import (
	"fmt"
	"runtime"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/trace"
	"cloud4home/internal/vclock"
)

// CityScaleConfig parameterises the city-scale sweep: one overlay of N
// home nodes driven by a deterministic population workload, measuring
// routing, repair traffic and the host memory each node costs.
type CityScaleConfig struct {
	Seed int64
	// Nodes is the sweep's population sizes (default 1000, 10000, 100000).
	Nodes []int
	// Ops is the workload's operation count per size (default 4096).
	Ops int
	// Objects is the shared catalogue size (default 256).
	Objects int
	// ChurnEvents is the number of node failures injected after the
	// workload to measure KV repair traffic (default 4).
	ChurnEvents int
	// Scale is the modeled gate set; the zero value is replaced by lazy
	// monitors.
	Scale core.ScaleConfig
	// Regions configures the super-peer cell's aggregation tier
	// (default 8); the cell runs at the smallest sweep size.
	Regions int
	// Host times the host-side (real) duration of each build+run. Nil
	// means the real wall clock.
	Host vclock.Clock
}

// DefaultCityScale returns the full 1k/10k/100k sweep.
func DefaultCityScale(seed int64) CityScaleConfig {
	return CityScaleConfig{Seed: seed, Nodes: []int{1_000, 10_000, 100_000}}
}

// CityScaleMetrics are one run's virtual-time (and virtual-traffic)
// results: every field is schedule-determined, so reruns of the same
// city produce equal structs. Host-side measurements live on
// CityScaleRow instead.
type CityScaleMetrics struct {
	Nodes int
	// Ops splits the executed workload.
	Stores, Fetches int
	// LookupHops aggregates kv get hop counts; StoreHops the put routes.
	MeanLookupHops float64
	MaxLookupHops  int
	MeanStoreHops  float64
	// FetchMean/FetchMax summarise virtual fetch latency.
	FetchMean, FetchMax time.Duration
	// Messages is the cumulative wire message count after the workload;
	// RepairMessages the additional messages the churn window generated.
	Messages       int64
	RepairMessages int64
	// Elapsed is the virtual time consumed by build + workload + churn.
	Elapsed time.Duration
}

// CityScaleRow is one sweep size's full record.
type CityScaleRow struct {
	Metrics CityScaleMetrics
	// BytesPerNode is the host resident-heap delta of building the city,
	// divided by the node count (measured under runtime.GC, so it is a
	// host-side figure, not schedule-determined).
	BytesPerNode int64
	// HostWall is the host wall clock of the build + run.
	HostWall time.Duration
}

// CitySuperPeerCell measures the aggregation tier at the smallest sweep
// size: the same workload routed through regional super-peers.
type CitySuperPeerCell struct {
	Nodes, Regions int
	// MeanHops/MaxHops are total per-lookup hops under the tier (home →
	// regional aggregator → aggregator → owner is at most 3).
	MeanHops float64
	MaxHops  int
	// SuperHops counts hops that landed on an aggregator; HomeHops the
	// rest. Together they are the per-tier hop split.
	SuperHops, HomeHops int64
}

// CityScaleResult is RunCityScale's report.
type CityScaleResult struct {
	Rows      []CityScaleRow
	SuperPeer CitySuperPeerCell
}

// cityArm builds one city and drives the population workload through its
// kv layer, then injects churn and measures repair traffic. All ops run
// sequentially inside the virtual clock, so the schedule — and every
// metric — is a pure function of (seed, nodes, modeled gates).
func cityArm(cfg CityScaleConfig, nodes int) (CityScaleMetrics, int64, error) {
	ops, err := trace.GeneratePopulation(trace.PopulationConfig{
		Seed:          cfg.Seed,
		Homes:         nodes,
		Objects:       cfg.Objects,
		Ops:           cfg.Ops,
		StoreFraction: 0.4,
	})
	if err != nil {
		return CityScaleMetrics{}, 0, err
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	city, err := cluster.NewCity(cluster.CityOptions{
		Seed:  cfg.Seed,
		Homes: nodes,
		Scale: cfg.Scale,
	})
	if err != nil {
		return CityScaleMetrics{}, 0, err
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	var bytesPerNode int64
	if after.HeapAlloc > before.HeapAlloc {
		bytesPerNode = int64(after.HeapAlloc-before.HeapAlloc) / int64(nodes)
	}

	m := CityScaleMetrics{Nodes: nodes}
	var runErr error
	epoch := cluster.Epoch
	city.Run(func() {
		kvs := city.Home.KV()
		var hopSum, storeHopSum int
		fetchDurs := make([]time.Duration, 0, len(ops))
		payload := []byte(`{"city":"meta"}`)
		for _, op := range ops {
			from := city.Nodes[op.Home].ID()
			key := ids.HashString(fmt.Sprintf("city/%06d", op.Object))
			if op.Kind == trace.OpStore {
				pr, err := kvs.Put(from, key, payload, kv.Overwrite)
				if err != nil {
					runErr = err
					return
				}
				m.Stores++
				storeHopSum += pr.Hops
			} else {
				s0 := city.V.Now()
				gr, err := kvs.Get(from, key)
				if err != nil {
					runErr = err
					return
				}
				m.Fetches++
				hopSum += gr.Hops
				if gr.Hops > m.MaxLookupHops {
					m.MaxLookupHops = gr.Hops
				}
				fetchDurs = append(fetchDurs, city.V.Now().Sub(s0))
			}
		}
		if m.Fetches > 0 {
			m.MeanLookupHops = float64(hopSum) / float64(m.Fetches)
		}
		if m.Stores > 0 {
			m.MeanStoreHops = float64(storeHopSum) / float64(m.Stores)
		}
		st := Summarize(fetchDurs)
		m.FetchMean, m.FetchMax = st.Mean, st.Max

		msgs, _, _ := city.Home.Net().Traffic()
		m.Messages = msgs

		// Churn window: crash the last ChurnEvents non-gateway nodes and
		// let the kv layer's departure handlers re-replicate. The message
		// delta is the repair traffic.
		churn := cfg.ChurnEvents
		if churn > len(city.Nodes)-1 {
			churn = len(city.Nodes) - 1
		}
		for i := 0; i < churn; i++ {
			victim := city.Nodes[len(city.Nodes)-1-i]
			if err := city.Home.Mesh().Fail(victim.ID()); err != nil {
				runErr = err
				return
			}
			kvs.Detach(victim.ID())
		}
		after, _, _ := city.Home.Net().Traffic()
		m.RepairMessages = after - msgs
		m.Elapsed = city.V.Now().Sub(epoch)
	})
	if runErr != nil {
		return CityScaleMetrics{}, 0, runErr
	}
	return m, bytesPerNode, nil
}

// RunCityScale sweeps the configured node counts, then runs the
// super-peer cell at the smallest size.
func RunCityScale(cfg CityScaleConfig) (*CityScaleResult, error) {
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []int{1_000, 10_000, 100_000}
	}
	if cfg.Ops == 0 {
		cfg.Ops = 4096
	}
	if cfg.Objects == 0 {
		cfg.Objects = 256
	}
	if cfg.ChurnEvents == 0 {
		cfg.ChurnEvents = 4
	}
	if !cfg.Scale.Enabled() {
		cfg.Scale = core.ScaleConfig{LazyMonitors: true}
	}
	if cfg.Regions == 0 {
		cfg.Regions = 8
	}
	host := cfg.Host
	if host == nil {
		host = vclock.Real{}
	}

	res := &CityScaleResult{}
	for _, n := range cfg.Nodes {
		t0 := host.Now()
		m, bpn, err := cityArm(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("city scale n=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, CityScaleRow{Metrics: m, BytesPerNode: bpn, HostWall: host.Now().Sub(t0)})
	}

	// Super-peer cell: the smallest size with the aggregation tier on.
	// The tier is a modeled change (hop structure differs), so it is
	// measured beside the sweep, not inside it.
	spScale := cfg.Scale
	spScale.SuperPeerRegions = cfg.Regions
	spNodes := cfg.Nodes[0]
	sp, err := citySuperPeerCell(cfg, spNodes, spScale)
	if err != nil {
		return nil, fmt.Errorf("city scale super-peer cell: %w", err)
	}
	res.SuperPeer = sp
	return res, nil
}

// citySuperPeerCell runs the workload under the aggregation tier and
// splits hops by tier.
func citySuperPeerCell(cfg CityScaleConfig, nodes int, scale core.ScaleConfig) (CitySuperPeerCell, error) {
	ops, err := trace.GeneratePopulation(trace.PopulationConfig{
		Seed:          cfg.Seed,
		Homes:         nodes,
		Objects:       cfg.Objects,
		Ops:           cfg.Ops,
		StoreFraction: 0.4,
	})
	if err != nil {
		return CitySuperPeerCell{}, err
	}
	city, err := cluster.NewCity(cluster.CityOptions{Seed: cfg.Seed, Homes: nodes, Scale: scale})
	if err != nil {
		return CitySuperPeerCell{}, err
	}
	cell := CitySuperPeerCell{Nodes: nodes, Regions: scale.SuperPeerRegions}
	var runErr error
	city.Run(func() {
		kvs := city.Home.KV()
		payload := []byte(`{"city":"meta"}`)
		var hops, lookups int
		for _, op := range ops {
			from := city.Nodes[op.Home].ID()
			key := ids.HashString(fmt.Sprintf("city/%06d", op.Object))
			if op.Kind == trace.OpStore {
				pr, err := kvs.Put(from, key, payload, kv.Overwrite)
				if err != nil {
					runErr = err
					return
				}
				cell.SuperHops += int64(pr.SuperHops)
				cell.HomeHops += int64(pr.Hops - pr.SuperHops)
			} else {
				gr, err := kvs.Get(from, key)
				if err != nil {
					runErr = err
					return
				}
				lookups++
				hops += gr.Hops
				if gr.Hops > cell.MaxHops {
					cell.MaxHops = gr.Hops
				}
				cell.SuperHops += int64(gr.SuperHops)
				cell.HomeHops += int64(gr.Hops - gr.SuperHops)
			}
		}
		if lookups > 0 {
			cell.MeanHops = float64(hops) / float64(lookups)
		}
	})
	if runErr != nil {
		return CitySuperPeerCell{}, runErr
	}
	return cell, nil
}

// Table renders the sweep.
func (r *CityScaleResult) Table() Table {
	t := Table{
		Title: "City scale: shared membership arena + targeted-wakeup clock",
		Headers: []string{"Nodes", "Lookup hops", "Fetch mean", "Messages", "Repair msgs",
			"Bytes/node", "Host wall"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Metrics.Nodes),
			fmt.Sprintf("%.2f", row.Metrics.MeanLookupHops),
			Seconds(row.Metrics.FetchMean),
			fmt.Sprintf("%d", row.Metrics.Messages),
			fmt.Sprintf("%d", row.Metrics.RepairMessages),
			fmt.Sprintf("%d", row.BytesPerNode),
			row.HostWall.Round(time.Millisecond).String(),
		})
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("sp:%d/r%d", r.SuperPeer.Nodes, r.SuperPeer.Regions),
		fmt.Sprintf("%.2f (max %d)", r.SuperPeer.MeanHops, r.SuperPeer.MaxHops),
		"-", "-", "-",
		fmt.Sprintf("super %d / home %d", r.SuperPeer.SuperHops, r.SuperPeer.HomeHops),
		"-",
	})
	return t
}
