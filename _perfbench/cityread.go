package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
)

// city-read: read-only Zipf(1.2) fetches of a sparse catalogue from
// random homes of a cluster.NewCity overlay. Every store sits in set-up:
// each store scans every member's resource record, so any store share
// in the timed phase would turn this into a store benchmark.

type citySizes struct {
	homes, objects, fetches, builds, joins int
	objSize                                int64
}

func citySizesFor(cfg config) citySizes {
	if cfg.tiny {
		return citySizes{homes: 24, objects: 16, fetches: 300, builds: 1, joins: 2, objSize: 256 << 10}
	}
	return citySizes{homes: 500, objects: 256, fetches: 30000 * cfg.seconds, builds: 3, joins: 8, objSize: 256 << 10}
}

// cityInputs is everything the workload feeds the program.
type cityInputs struct {
	owners []int // home that stores object i
	reads  []cityRead
}

type cityRead struct{ home, object int }

func objectName(i int) string { return fmt.Sprintf("city/obj-%04d.bin", i) }

func genCity(seed int64, sz citySizes) cityInputs {
	rng := rand.New(rand.NewSource(seed))
	in := cityInputs{owners: make([]int, sz.objects), reads: make([]cityRead, sz.fetches)}
	for i := range in.owners {
		in.owners[i] = rng.Intn(sz.homes)
	}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(sz.objects-1))
	for i := range in.reads {
		in.reads[i] = cityRead{home: rng.Intn(sz.homes), object: int(zipf.Uint64())}
	}
	return in
}

type citySys struct {
	city          *cluster.City
	sess          []*core.Session // one per home
	stores        []time.Duration
	lookupsPerPut float64
	fp            uint64
}

func buildCity(t *tracer, seed int64, sz citySizes, in cityInputs, res *result) (*citySys, error) {
	root := t.begin("bench.setup", 0, 0, 0)
	defer t.end(root)
	sys := &citySys{}
	err := t.call("cluster.NewCity", root, 0, 0, func() error {
		var err error
		sys.city, err = cluster.NewCity(cluster.CityOptions{Seed: seed, Homes: sz.homes})
		return err
	})
	if err != nil {
		return nil, err
	}
	var runErr error
	sys.city.Run(func() {
		for _, n := range sys.city.Nodes {
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
		before := snapCounters(sys.city.Home)
		fp := newFingerprint()
		for i, owner := range in.owners {
			s := sys.sess[owner]
			name := objectName(i)
			err := t.call("core.Session.CreateObject", root, int64(i), 0, func() error {
				return s.CreateObject(name, "bin", nil)
			})
			var sr core.StoreResult
			if err == nil {
				err = t.call("core.Session.StoreObject", root, int64(i), 0, func() error {
					var err error
					sr, err = s.StoreObject(name, nil, sz.objSize, core.StoreOptions{Blocking: true})
					return err
				})
			}
			res.op("preload", err)
			if err != nil {
				continue
			}
			sys.stores = append(sys.stores, sr.Total)
			fp.dur(sr.Total)
			fp.str(sr.Location)
		}
		after := snapCounters(sys.city.Home)
		sys.lookupsPerPut = ratio(float64(after.lookups-before.lookups), float64(len(in.owners)))
		fp.dur(time.Duration(sys.city.V.Now().UnixNano()))
		sys.fp = fp.h
	})
	return sys, runErr
}

type cityPhase struct {
	phase
	breakdowns    []core.FetchBreakdown
	before, after counters
}

// readCity runs the timed phase: one closed-loop reader issuing every
// generated fetch in order.
func readCity(t *tracer, sys *citySys, in cityInputs, sz citySizes, res *result) *cityPhase {
	ph := &cityPhase{breakdowns: make([]core.FetchBreakdown, 0, len(in.reads))}
	ph.lat = make([]time.Duration, 0, len(in.reads))
	home := sys.city.Home
	ph.before = snapCounters(home)
	ph.h0 = sampleHost()
	fp := newFingerprint()
	sys.city.Run(func() {
		v := sys.city.V
		start := v.Now()
		for i, rd := range in.reads {
			s := sys.sess[rd.home]
			name := objectName(rd.object)
			op := t.begin("bench.op", 0, int64(i), 1)
			t0 := v.Now()
			var fr core.FetchResult
			err := t.call("core.Session.FetchObject", op, int64(i), 1, func() error {
				var err error
				fr, err = s.FetchObject(name)
				return err
			})
			lat := v.Now().Sub(t0)
			t.end(op)
			res.op("fetch", err)
			fp.dur(lat)
			if err != nil {
				continue
			}
			res.check(fr.Meta.Size == sz.objSize && fr.Data == nil,
				"city-read: fetch of %s returned size %d (sparse=%v), stored %d", name, fr.Meta.Size, fr.Data == nil, sz.objSize)
			ph.ops++
			ph.userBytes += fr.Meta.Size
			ph.lat = append(ph.lat, lat)
			ph.breakdowns = append(ph.breakdowns, fr.Breakdown)
		}
		ph.virt = v.Now().Sub(start)
	})
	ph.h1 = sampleHost()
	ph.host = ph.h1.wall.Sub(ph.h0.wall)
	ph.after = snapCounters(home)
	fp.dur(ph.virt)
	ph.fp = fp.h
	return ph
}

func runCityRead(cfg config, t *tracer) (*result, error) {
	sz := citySizesFor(cfg)
	in := genCity(cfg.seed, sz)
	res := newResult()
	if !cfg.trace {
		var sys *citySys
		var setups []float64
		for b := 0; b < sz.builds; b++ {
			sys = nil // let the previous build go before the next one starts
			t0 := time.Now()
			next, err := buildCity(t, cfg.seed, sz, in, res)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			sys = next
		}
		ph := readCity(t, sys, in, sz, res)
		ph.breakdowns = nil
		res.addEndToEnd(&ph.phase, setups, liveHeapMB())
		runtime.KeepAlive(sys) // mem_mb counts the built system
		return res, nil
	}

	sysA, err := buildCity(newTracer(false), cfg.seed, sz, in, res)
	if err != nil {
		return nil, err
	}
	phA := readCity(newTracer(false), sysA, in, sz, res)
	fpA, setupFP := phA.fp, sysA.fp
	phA.breakdowns = nil
	sys, err := buildCity(t, cfg.seed, sz, in, res)
	if err != nil {
		return nil, err
	}
	res.check(sys.fp == setupFP, "city-read: two set-up builds of one seed differ")
	ph := readCity(t, sys, in, sz, res)
	res.check(ph.fp == fpA, "city-read: two runs of one seed gave different virtual results")

	var dht, interNode, interDom []time.Duration
	for _, bd := range ph.breakdowns {
		dht = append(dht, bd.DHTLookup)
		interNode = append(interNode, bd.InterNode)
		interDom = append(interDom, bd.InterDomain)
	}
	agg := aggregate(t.snapshot())
	res.add("core.fetch_host_us", "us", spanMeanUS(agg, "core.Session.FetchObject"))
	res.add("core.store_host_us", "us", spanMeanUS(agg, "core.Session.StoreObject"))
	res.addLatency("core.store_virt", sys.stores)
	res.addLatency("core.fetch_virt", ph.lat)
	res.addN("kv.dht_lookup_virt_ms", "ms", ms(mean(dht)), len(dht), "mean")
	res.addN("netsim.internode_virt_ms", "ms", ms(mean(interNode)), len(interNode), "mean")
	res.addN("xenchan.interdomain_virt_ms", "ms", ms(mean(interDom)), len(interDom), "mean")
	res.add("kv.lookups_per_store", "count", sys.lookupsPerPut)
	res.add("vclock.virt_s_per_host_s", "ratio", ratio(ph.virt.Seconds(), ph.host.Seconds()))
	res.add("objstore.bytes_per_user_byte", "ratio",
		ratio(float64(binBytes(sys.city.Home)), float64(int64(sz.objects)*sz.objSize)))
	res.addCounters(ph.after.minus(ph.before), ph.ops, ph.userBytes)
	res.addHost(ph.h0, ph.h1, ph.ops)
	res.add("trace.overhead", "ratio", overheadRatio(&phA.phase, &ph.phase))

	probe := t.begin("bench.probe", 0, 0, 0)
	defer t.end(probe)
	names := make([]string, 0, sz.objects)
	for i := 0; i < sz.objects; i++ {
		names = append(names, objectName(i))
	}
	var perr error
	var joins []time.Duration
	sys.city.Run(func() {
		if perr = probeKV(t, probe, sys.city.Home, sys.city.Nodes[len(sys.city.Nodes)-1], names, res); perr != nil {
			return
		}
		// Joins land on the built city: each is one more home.
		for j := 0; j < sz.joins; j++ {
			addr := fmt.Sprintf("probe-%03d:9000", j)
			t0 := time.Now()
			perr = t.call("core.Home.AddNode", probe, int64(j), 0, func() error {
				_, err := sys.city.Home.AddNode(core.NodeConfig{
					Addr:           addr,
					Machine:        cluster.NetbookSpec(addr),
					MandatoryBytes: 4 * cluster.GB,
					VoluntaryBytes: 2 * cluster.GB,
				})
				return err
			})
			if perr != nil {
				return
			}
			joins = append(joins, time.Since(t0))
		}
	})
	if perr != nil {
		return nil, perr
	}
	res.addN("overlay.join_host_ms", "ms", ms(mean(joins)), len(joins), "mean")
	return res, nil
}
