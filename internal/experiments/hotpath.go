package experiments

import (
	"fmt"
	"sync"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/vclock"
)

// HotPathConfig parameterises the hot-path driver: it times, on the
// host, the scale-up sweep whose striped fetch cells are the simulator's
// hottest path, and measures what fetch coalescing — a modeled
// behaviour change — buys on a hot object.
type HotPathConfig struct {
	Seed int64
	// Workers bounds host-side concurrency of the scale-up cells.
	Workers int
	// CoalesceClients concurrent sessions fetch the same hot object in the
	// coalescing section.
	CoalesceClients int
	// CoalesceSize is the hot object's size.
	CoalesceSize int64
	// Host is the clock that times the sweep's host-side (real) duration.
	// Nil means the real wall clock.
	Host vclock.Clock
}

// DefaultHotPath returns the standard configuration.
func DefaultHotPath(seed int64) HotPathConfig {
	return HotPathConfig{
		Seed:            seed,
		CoalesceClients: 4,
		CoalesceSize:    8 * MB,
	}
}

// CoalesceResult compares concurrent hot-object fetches with and without
// request coalescing.
type CoalesceResult struct {
	// Requests is the concurrent session count.
	Requests int
	// Coalesced counts followers that joined the leader's transfer.
	Coalesced int64
	// SoloWall/SoloFetch: every session runs its own wire transfer, all of
	// them processor-sharing the holder's NIC.
	SoloWall  time.Duration
	SoloFetch Stats
	// SharedWall/SharedFetch: one wire transfer, followers charged exactly
	// the virtual time until the leader's bytes arrive.
	SharedWall  time.Duration
	SharedFetch Stats
}

// HotPathResult is RunHotPath's report.
type HotPathResult struct {
	// Sweep is the scale-up sweep's virtual-time result.
	Sweep *ScaleUpResult
	// SweepHost is the host (real) wall-clock time the sweep took to
	// simulate — a host figure, unlike every other field.
	SweepHost time.Duration
	Coalesce  CoalesceResult
}

// RunHotPath runs the scale-up sweep, timing it on the host, then
// measures concurrent hot-object fetches with coalescing off and on.
func RunHotPath(cfg HotPathConfig) (*HotPathResult, error) {
	if cfg.CoalesceClients <= 0 {
		cfg.CoalesceClients = 4
	}
	if cfg.CoalesceSize <= 0 {
		cfg.CoalesceSize = 8 * MB
	}
	host := cfg.Host
	if host == nil {
		host = vclock.Real{}
	}
	res := &HotPathResult{}

	sweep := DefaultScaleUp(cfg.Seed)
	sweep.Workers = cfg.Workers
	t0 := host.Now()
	var err error
	if res.Sweep, err = RunScaleUp(sweep); err != nil {
		return nil, fmt.Errorf("hot path sweep: %w", err)
	}
	res.SweepHost = host.Now().Sub(t0)

	res.Coalesce.Requests = cfg.CoalesceClients
	solo, err := runCoalesceCell(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("coalesce off: %w", err)
	}
	res.Coalesce.SoloWall, res.Coalesce.SoloFetch = solo.wall, solo.fetch
	shared, err := runCoalesceCell(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("coalesce on: %w", err)
	}
	res.Coalesce.SharedWall, res.Coalesce.SharedFetch = shared.wall, shared.fetch
	res.Coalesce.Coalesced = shared.coalesced
	return res, nil
}

type coalesceCell struct {
	wall      time.Duration
	fetch     Stats
	coalesced int64
}

// runCoalesceCell stores one hot object on the desktop and has
// CoalesceClients sessions on one netbook fetch it near-simultaneously
// (staggered 500 µs apart so the run is deterministic).
func runCoalesceCell(cfg HotPathConfig, coalesce bool) (coalesceCell, error) {
	tb, err := cluster.New(cluster.Options{Seed: cfg.Seed, Perf: core.PerfConfig{CoalesceFetch: coalesce}})
	if err != nil {
		return coalesceCell{}, err
	}
	const name = "hotpath/coalesce.bin"
	var cell coalesceCell
	var runErr error
	tb.Run(func() {
		writer, err := tb.Desktop.OpenSession()
		if err != nil {
			runErr = err
			return
		}
		defer writer.Close()
		if err := writer.CreateObject(name, "b", nil); err != nil {
			runErr = err
			return
		}
		if _, err := writer.StoreObject(name, nil, cfg.CoalesceSize, core.StoreOptions{Blocking: true}); err != nil {
			runErr = err
			return
		}
		reader := tb.Netbooks[1]
		durs := make([]time.Duration, cfg.CoalesceClients)
		var ferr firstErr
		var wg sync.WaitGroup
		start := tb.V.Now()
		for w := 0; w < cfg.CoalesceClients; w++ {
			w := w
			wg.Add(1)
			tb.V.Go(func() {
				defer wg.Done()
				sess, err := reader.OpenSession()
				if err != nil {
					ferr.set(err)
					return
				}
				defer sess.Close()
				tb.V.Sleep(time.Duration(w) * 500 * time.Microsecond)
				s0 := tb.V.Now()
				if _, err := sess.FetchObject(name); err != nil {
					ferr.set(err)
					return
				}
				durs[w] = tb.V.Now().Sub(s0)
			})
		}
		tb.V.Block(wg.Wait)
		runErr = ferr.get()
		cell.wall = tb.V.Now().Sub(start)
		cell.fetch = Summarize(durs)
		cell.coalesced = reader.OpStats().CoalescedFetches
	})
	if runErr != nil {
		return coalesceCell{}, runErr
	}
	return cell, nil
}

// Table renders the report.
func (r *HotPathResult) Table() Table {
	return Table{
		Title:   "Hot path: scale-up sweep host cost and fetch coalescing",
		Headers: []string{"Measure", "Coalescing off", "Coalescing on"},
		Rows: [][]string{
			{"scale-up sweep host wall", r.SweepHost.Round(time.Millisecond).String(), "-"},
			{fmt.Sprintf("coalesce wall (%d readers)", r.Coalesce.Requests),
				Seconds(r.Coalesce.SoloWall), Seconds(r.Coalesce.SharedWall)},
			{"coalesce fetch mean", Seconds(r.Coalesce.SoloFetch.Mean), Seconds(r.Coalesce.SharedFetch.Mean)},
			{"coalesced followers", "0", fmt.Sprintf("%d", r.Coalesce.Coalesced)},
		},
	}
}
