package experiments

import (
	"fmt"
	"sync"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/policy"
	"cloud4home/internal/trace"
)

// Fig6Config parameterises the joint home/remote fetch-throughput sweep.
type Fig6Config struct {
	Seed int64
	// RemotePcts are the swept shares of data placed in the remote cloud
	// (paper x-axis: 0–55 %).
	RemotePcts []int
	// Threads are the client concurrency levels (paper: 1, 2, 3).
	Threads []int
	// TotalBytes is the volume fetched per point (paper: 700 MB).
	TotalBytes int64
	// Clients is how many devices issue fetches (paper: 3 of 6).
	Clients int
}

// DefaultFig6 matches the paper's setup: objects in the "optimal" size
// band (10–25 MB) found in Figure 5, 700 MB fetched per point, private
// .mp3 files kept local and shareable content remote.
func DefaultFig6(seed int64) Fig6Config {
	return Fig6Config{
		Seed:       seed,
		RemotePcts: []int{0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55},
		Threads:    []int{1, 2, 3},
		TotalBytes: 700 * MB,
		Clients:    3,
	}
}

// Fig6Row is one remote-share point.
type Fig6Row struct {
	RemotePct int
	// MBps[k] is the aggregate fetch throughput with Threads[k] workers.
	MBps []float64
}

// Fig6Result reproduces Figure 6: aggregate fetch throughput as the share
// of remotely-stored data and the client concurrency vary, plus the flat
// remote-cloud-only reference line.
type Fig6Result struct {
	Threads    []int
	Rows       []Fig6Row
	RemoteOnly float64
}

// RunFig6 executes the sweep.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	res := &Fig6Result{Threads: cfg.Threads}
	for _, pct := range cfg.RemotePcts {
		row := Fig6Row{RemotePct: pct}
		for _, threads := range cfg.Threads {
			tput, err := runFig6Point(cfg, pct, threads)
			if err != nil {
				return nil, err
			}
			row.MBps = append(row.MBps, tput)
		}
		res.Rows = append(res.Rows, row)
	}
	// The remote-cloud reference: everything remote, highest concurrency.
	maxThreads := cfg.Threads[len(cfg.Threads)-1]
	ro, err := runFig6Point(cfg, 100, maxThreads)
	if err != nil {
		return nil, err
	}
	res.RemoteOnly = ro
	return res, nil
}

// runFig6Point builds a testbed, places ~remotePct% of the dataset's
// bytes in the remote cloud (shareable files first, mirroring the privacy
// policy), and measures aggregate throughput of fetching the whole
// dataset with the given number of worker threads.
func runFig6Point(cfg Fig6Config, remotePct, threads int) (float64, error) {
	tb, err := cluster.New(cluster.Options{Seed: cfg.Seed + int64(remotePct)*100 + int64(threads)})
	if err != nil {
		return 0, err
	}

	tcfg := trace.Default(cfg.Seed)
	tcfg.MinSize = 10 * MB
	tcfg.MaxSize = 25 * MB
	tcfg.Files = int(cfg.TotalBytes / (17 * MB))
	tcfg.Accesses = 0 // we fetch the catalogue directly
	tr, err := trace.Generate(tcfg)
	if err != nil {
		return 0, err
	}

	var tput float64
	var runErr error
	tb.Run(func() {
		nodes := tb.AllNodes()
		owners := make([]*core.Session, len(nodes))
		for i, n := range nodes {
			owners[i], err = n.OpenSession()
			if err != nil {
				runErr = err
				return
			}
		}
		defer func() {
			for _, s := range owners {
				s.Close()
			}
		}()

		// Placement: shareable files go remote until the byte budget for
		// this point is spent; everything else is distributed across the
		// home nodes.
		remoteBudget := tr.TotalBytes() * int64(remotePct) / 100
		var remoteBytes, totalBytes int64
		for i, f := range tr.Files {
			owner := owners[i%len(owners)]
			if runErr = owner.CreateObject(f.Name, f.Type, f.Tags); runErr != nil {
				return
			}
			goRemote := remoteBytes < remoteBudget && f.Type != "mp3"
			if remotePct >= 100 {
				goRemote = true
			}
			var pol policy.StorePolicy = policy.DefaultLocal{}
			if goRemote {
				pol = policy.SizeThreshold{RemoteBytes: 1}
				remoteBytes += f.Size
			}
			if _, err := owner.StoreObject(f.Name, nil, f.Size, core.StoreOptions{Blocking: true, Policy: pol}); err != nil {
				runErr = err
				return
			}
			totalBytes += f.Size
		}

		// Fetch phase: client sessions on the first cfg.Clients netbooks;
		// `threads` workers drain a shared queue of fetches. Workers start
		// 500 µs apart: started together, they would race for the first
		// jobs and for the network's per-operation RNG streams in Go
		// scheduler order, making the multi-thread points nondeterministic.
		clients := make([]*core.Session, cfg.Clients)
		for i := 0; i < cfg.Clients; i++ {
			clients[i], err = tb.Netbooks[i%len(tb.Netbooks)].OpenSession()
			if err != nil {
				runErr = err
				return
			}
		}
		defer func() {
			for _, s := range clients {
				s.Close()
			}
		}()

		jobs := &jobQueue{limit: len(tr.Files)}

		start := tb.V.Now()
		var wg sync.WaitGroup
		var ferr firstErr
		for w := 0; w < threads; w++ {
			w := w
			wg.Add(1)
			tb.V.Go(func() {
				defer wg.Done()
				client := clients[w%len(clients)]
				tb.V.Sleep(time.Duration(w) * 500 * time.Microsecond)
				for {
					j, ok := jobs.take()
					if !ok {
						return
					}
					if _, err := client.FetchObject(tr.Files[j].Name); err != nil {
						ferr.set(err)
						return
					}
				}
			})
		}
		tb.V.Block(wg.Wait)
		if runErr == nil {
			runErr = ferr.get()
		}
		elapsed := tb.V.Now().Sub(start)
		tput = Throughput(totalBytes, elapsed)
	})
	if runErr != nil {
		return 0, fmt.Errorf("fig6 pct=%d threads=%d: %w", remotePct, threads, runErr)
	}
	return tput, nil
}

// Table renders the sweep.
func (r *Fig6Result) Table() Table {
	headers := []string{"Remote%"}
	for _, th := range r.Threads {
		headers = append(headers, fmt.Sprintf("%dThread(MB/s)", th))
	}
	headers = append(headers, "RemoteCloud(MB/s)")
	t := Table{
		Title:   "Figure 6: Aggregate fetch throughput vs % data in remote cloud",
		Headers: headers,
	}
	for _, row := range r.Rows {
		cells := []string{fmt.Sprintf("%d", row.RemotePct)}
		for _, v := range row.MBps {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		cells = append(cells, fmt.Sprintf("%.2f", r.RemoteOnly))
		t.Rows = append(t.Rows, cells)
	}
	return t
}
