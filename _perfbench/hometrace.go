package main

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/policy"
	"cloud4home/internal/trace"
)

// home-trace replays the paper's §V-A eDonkey-derived trace on the
// paper testbed (cluster.New: five netbooks, the desktop, the S3 clone).
// Set-up stores the whole trace.Default catalogue once; the timed phase
// replays the trace from six closed-loop virtual clients, each pinned to
// one device, waiting for its own reply and keeping the trace's
// inter-arrival gaps.

type homeSizes struct {
	files    int // catalogue size of each replay
	accesses int // accesses per replay
	replays  int // independent testbeds, each replaying its own trace
	builds   int // set-up builds per replay; setup_s is their median
}

// replayAccesses is the length of one replay: long enough for the
// overwrites to overflow the home bins into the cloud.
const replayAccesses = 20000

func homeSizesFor(cfg config) homeSizes {
	if cfg.tiny {
		return homeSizes{files: 40, accesses: 100, replays: 2, builds: 2}
	}
	r := 8000 * cfg.seconds / replayAccesses
	if r < 1 {
		r = 1
	}
	return homeSizes{files: 1300, accesses: replayAccesses, replays: r, builds: 4}
}

// genHomeTraces is the workload's whole input: one catalogue and access
// sequence per replay, each from its own seed drawn from the run's seed.
// Pooling several independent replays averages out what one catalogue
// draw does to the numbers: with a single 80k-access replay, ops_per_s
// and lat_p50_ms moved 17% and 7% between seeds.
func genHomeTraces(seed int64, sz homeSizes) ([]*trace.Trace, []int64, error) {
	rng := rand.New(rand.NewSource(seed))
	var trs []*trace.Trace
	var seeds []int64
	for r := 0; r < sz.replays; r++ {
		sub := rng.Int63()
		c := trace.Default(sub)
		c.Files = sz.files
		c.Accesses = sz.accesses
		tr, err := trace.Generate(c)
		if err != nil {
			return nil, nil, err
		}
		trs = append(trs, tr)
		seeds = append(seeds, sub)
	}
	return trs, seeds, nil
}

type homeSys struct {
	tb   *cluster.Testbed
	sess []*core.Session // one per device, netbooks then desktop
	fp   uint64
}

// homeStore creates and blocking-stores one sparse catalogue file.
func homeStore(t *tracer, parent spanID, op int64, tid int, s *core.Session, f trace.File) (core.StoreResult, error) {
	err := t.call("core.Session.CreateObject", parent, op, tid, func() error {
		return s.CreateObject(f.Name, f.Type, f.Tags)
	})
	if err != nil {
		return core.StoreResult{}, err
	}
	var sr core.StoreResult
	err = t.call("core.Session.StoreObject", parent, op, tid, func() error {
		var err error
		sr, err = s.StoreObject(f.Name, nil, f.Size, core.StoreOptions{Blocking: true})
		return err
	})
	return sr, err
}

func buildHome(t *tracer, seed int64, tr *trace.Trace, res *result) (*homeSys, error) {
	root := t.begin("bench.setup", 0, 0, 0)
	defer t.end(root)
	sys := &homeSys{}
	err := t.call("cluster.New", root, 0, 0, func() error {
		var err error
		sys.tb, err = cluster.New(cluster.Options{Seed: seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	var runErr error
	sys.tb.Run(func() {
		for _, n := range sys.tb.AllNodes() {
			var s *core.Session
			runErr = t.call("core.Node.OpenSession", root, 0, 0, func() error {
				var err error
				s, err = n.OpenSession()
				return err
			})
			if runErr != nil {
				return
			}
			sys.sess = append(sys.sess, s)
		}
		fp := newFingerprint()
		for i, f := range tr.Files {
			sr, err := homeStore(t, root, int64(i), 0, sys.sess[i%len(sys.sess)], f)
			res.op("preload", err)
			if err != nil {
				continue
			}
			fp.dur(sr.Total)
			fp.str(sr.Location)
		}
		fp.dur(time.Duration(sys.tb.V.Now().UnixNano()))
		sys.fp = fp.h
	})
	return sys, runErr
}

// homeOp is one replayed access's outcome.
type homeOp struct {
	kind  trace.OpKind
	err   error
	lat   time.Duration
	size  int64
	store core.StoreResult
	fetch core.FetchResult
}

type homePhase struct {
	phase
	ops           []homeOp
	before, after counters
}

// replayHome runs the timed phase on a built testbed.
func replayHome(t *tracer, sys *homeSys, tr *trace.Trace, clients int) *homePhase {
	ph := &homePhase{}
	perClient := make([][]homeOp, clients)
	home := sys.tb.Home
	ph.before = snapCounters(home)
	ph.h0 = sampleHost()
	sys.tb.Run(func() {
		start := sys.tb.V.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			sys.tb.V.Go(func() {
				defer wg.Done()
				s := sys.sess[c%len(sys.sess)]
				for i, a := range tr.Accesses {
					if a.Client != c {
						continue
					}
					if wait := start.Add(a.At).Sub(sys.tb.V.Now()); wait > 0 {
						sys.tb.V.Sleep(wait)
					}
					f := tr.Files[a.File]
					op := homeOp{kind: a.Kind, size: f.Size}
					opSpan := t.begin("bench.op", 0, int64(i), c+1)
					t0 := sys.tb.V.Now()
					if a.Kind == trace.OpStore {
						op.store, op.err = homeStore(t, opSpan, int64(i), c+1, s, f)
					} else {
						op.err = t.call("core.Session.FetchObject", opSpan, int64(i), c+1, func() error {
							var err error
							op.fetch, err = s.FetchObject(f.Name)
							return err
						})
					}
					op.lat = sys.tb.V.Now().Sub(t0)
					t.end(opSpan)
					perClient[c] = append(perClient[c], op)
				}
			})
		}
		sys.tb.V.Block(wg.Wait)
		ph.virt = sys.tb.V.Now().Sub(start)
	})
	ph.h1 = sampleHost()
	ph.host = ph.h1.wall.Sub(ph.h0.wall)
	ph.after = snapCounters(home)
	fp := newFingerprint()
	for _, ops := range perClient {
		for _, op := range ops {
			ph.ops = append(ph.ops, op)
			fp.dur(op.lat)
			if op.err == nil {
				ph.phase.ops++
				ph.lat = append(ph.lat, op.lat)
				ph.userBytes += op.size
			}
		}
	}
	fp.dur(ph.virt)
	ph.fp = fp.h
	return ph
}

// account records every replayed op and checks each fetch's size.
func (ph *homePhase) account(res *result, tr *trace.Trace) {
	for _, op := range ph.ops {
		res.op(op.kind.String(), op.err)
		if op.err == nil && op.kind == trace.OpFetch {
			res.check(op.fetch.Meta.Size == op.size && op.fetch.Data == nil,
				"home-trace: fetch of %s returned size %d (sparse=%v), stored %d",
				op.fetch.Meta.Name, op.fetch.Meta.Size, op.fetch.Data == nil, op.size)
		}
	}
}

func runHomeTrace(cfg config, t *tracer) (*result, error) {
	sz := homeSizesFor(cfg)
	trs, seeds, err := genHomeTraces(cfg.seed, sz)
	if err != nil {
		return nil, err
	}
	clients := trace.Default(cfg.seed).Clients
	res := newResult()
	if !cfg.trace {
		var sys *homeSys
		var setups []float64
		var pooled phase
		for r, tr := range trs {
			sys = nil // let the previous replay's testbed go
			for b := 0; b < sz.builds; b++ {
				t0 := time.Now()
				next, err := buildHome(t, seeds[r], tr, res)
				if err != nil {
					return nil, err
				}
				setups = append(setups, time.Since(t0).Seconds())
				if sys != nil {
					res.check(next.fp == sys.fp, "home-trace: set-up builds of one seed differ")
				}
				sys = next
			}
			ph := replayHome(t, sys, tr, clients)
			ph.account(res, tr)
			pooled.pool(&ph.phase)
		}
		res.addEndToEnd(&pooled, setups, liveHeapMB())
		runtime.KeepAlive(sys) // mem_mb counts the built system
		return res, nil
	}

	// Traced run: each replay runs untraced first, for the overhead and
	// the determinism check, then traced on a fresh build.
	var untraced, traced phase
	var delta counters
	var ops []homeOp
	var held, live int64
	var last *homeSys
	for r, tr := range trs {
		last = nil // let the previous replay's testbed go
		sysA, err := buildHome(newTracer(false), seeds[r], tr, res)
		if err != nil {
			return nil, err
		}
		phA := replayHome(newTracer(false), sysA, tr, clients)
		phA.account(res, tr)
		untraced.pool(&phA.phase)
		sys, err := buildHome(t, seeds[r], tr, res)
		if err != nil {
			return nil, err
		}
		ph := replayHome(t, sys, tr, clients)
		ph.account(res, tr)
		res.check(ph.fp == phA.fp, "home-trace: two replays of one seed gave different virtual results")
		traced.pool(&ph.phase)
		delta = delta.plus(ph.after.minus(ph.before))
		ops = append(ops, ph.ops...)
		held += binBytes(sys.tb.Home)
		for _, f := range tr.Files {
			live += f.Size
		}
		last = sys
	}

	var storeLat, fetchLat, interNode, interDom, dht, placement []time.Duration
	cloudStores, stores, cloudFetches := 0, 0, 0
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		if op.kind == trace.OpStore {
			stores++
			storeLat = append(storeLat, op.lat)
			placement = append(placement, op.store.Placement)
			if op.store.Target == policy.TargetCloud {
				cloudStores++
			}
			continue
		}
		fetchLat = append(fetchLat, op.lat)
		interNode = append(interNode, op.fetch.Breakdown.InterNode)
		interDom = append(interDom, op.fetch.Breakdown.InterDomain)
		dht = append(dht, op.fetch.Breakdown.DHTLookup)
		if strings.HasPrefix(op.fetch.Source, "s3://"+cloudsim.Bucket) {
			cloudFetches++
		}
	}
	agg := aggregate(t.snapshot())
	res.add("core.store_host_us", "us", spanMeanUS(agg, "core.Session.StoreObject"))
	res.add("core.fetch_host_us", "us", spanMeanUS(agg, "core.Session.FetchObject"))
	res.addLatency("core.store_virt", storeLat)
	res.addLatency("core.fetch_virt", fetchLat)
	res.addN("core.placement_virt_ms", "ms", ms(mean(placement)), len(placement), "mean")
	res.add("core.store_cloud_share", "ratio", share(cloudStores, stores))
	res.add("core.fetch_cloud_share", "ratio", share(cloudFetches, len(fetchLat)))
	res.addN("kv.dht_lookup_virt_ms", "ms", ms(mean(dht)), len(dht), "mean")
	res.addN("netsim.internode_virt_ms", "ms", ms(mean(interNode)), len(interNode), "mean")
	res.addN("xenchan.interdomain_virt_ms", "ms", ms(mean(interDom)), len(interDom), "mean")
	res.add("vclock.virt_s_per_host_s", "ratio", ratio(traced.virt.Seconds(), traced.host.Seconds()))
	res.add("objstore.bytes_per_user_byte", "ratio", ratio(float64(held), float64(live)))
	res.addCounters(delta, traced.ops, traced.userBytes)
	res.addHost(traced.h0, traced.h1, traced.ops)
	res.add("trace.overhead", "ratio", overheadRatio(&untraced, &traced))

	probe := t.begin("bench.probe", 0, 0, 0)
	defer t.end(probe)
	tr := trs[len(trs)-1]
	names := make([]string, 0, 200)
	for i := 0; i < len(tr.Files) && len(names) < 200; i++ {
		names = append(names, tr.Files[i].Name)
	}
	var perr error
	last.tb.Run(func() { perr = probeKV(t, probe, last.tb.Home, last.tb.Netbooks[0], names, res) })
	if perr != nil {
		return nil, perr
	}
	return res, nil
}
