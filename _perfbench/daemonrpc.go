package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/cluster"
	"cloud4home/internal/command"
	"cloud4home/internal/core"
	"cloud4home/internal/daemon"
	"cloud4home/internal/services"
	"cloud4home/internal/vclock"
)

// daemon-rpc: c4hd's default topology in-process (three netbooks and
// the desktop on the real clock, the simulated cloud with an xl
// instance, the built-in services), served by a daemon.Server on a
// loopback port and driven over TCP by closed-loop clients, each pinned
// to its own netbook session. The mix is fetches of preloaded objects
// and stores of fresh names: an overwrite relocates toward the cloud and
// sleeps through modeled WAN time, which home-trace measures instead.

type daemonSizes struct {
	objects, objSize, builds, conns, pool int
	dur                                   time.Duration
	fetchPct                              int
}

func daemonSizesFor(cfg config) daemonSizes {
	if cfg.tiny {
		return daemonSizes{objects: 8, objSize: 4 << 10, builds: 1, conns: 2, pool: 4, dur: 300 * time.Millisecond, fetchPct: 70}
	}
	return daemonSizes{objects: 64, objSize: 16 << 10, builds: 3, conns: 2, pool: 32, dur: time.Duration(cfg.seconds) * time.Second, fetchPct: 70}
}

// maxDaemonRate bounds how many ops per second one connection could
// issue; the generated op list is that long, so a faster daemon than
// anything measured still has inputs for the whole timed phase.
const maxDaemonRate = 500

type daemonOp struct {
	fetch   bool
	object  int    // preloaded object to fetch
	name    string // fresh name to store
	payload int    // index into the store pool
}

type daemonInputs struct {
	objects [][]byte
	hashes  [][32]byte
	pool    [][]byte
	ops     [][]daemonOp // per connection
}

func genDaemon(seed int64, sz daemonSizes) daemonInputs {
	rng := rand.New(rand.NewSource(seed))
	var in daemonInputs
	for i := 0; i < sz.objects; i++ {
		p := make([]byte, sz.objSize)
		rng.Read(p)
		in.objects = append(in.objects, p)
		in.hashes = append(in.hashes, sha256.Sum256(p))
	}
	for i := 0; i < sz.pool; i++ {
		p := make([]byte, sz.objSize)
		rng.Read(p)
		in.pool = append(in.pool, p)
	}
	n := int(sz.dur.Seconds()*maxDaemonRate) + 1
	for c := 0; c < sz.conns; c++ {
		ops := make([]daemonOp, n)
		for i := range ops {
			if rng.Intn(100) < sz.fetchPct {
				ops[i] = daemonOp{fetch: true, object: rng.Intn(sz.objects)}
			} else {
				ops[i] = daemonOp{name: fmt.Sprintf("rpc/c%d-%06d.bin", c, i), payload: rng.Intn(sz.pool)}
			}
		}
		in.ops = append(in.ops, ops)
	}
	return in
}

func daemonObject(i int) string { return fmt.Sprintf("rpc/obj-%03d.bin", i) }

type daemonSys struct {
	home   *core.Home
	nodes  []*core.Node
	srv    *daemon.Server
	served chan error
}

// buildDaemon assembles c4hd's default home, starts serving it on a
// loopback port and preloads the objects through a client.
func buildDaemon(t *tracer, seed int64, sz daemonSizes, in daemonInputs, res *result) (*daemonSys, error) {
	root := t.begin("bench.setup", 0, 0, 0)
	defer t.end(root)
	sys := &daemonSys{home: core.NewHome(vclock.Real{}, core.HomeOptions{Seed: seed})}
	cloud := cloudsim.New(vclock.Real{}, sys.home.Net())
	sys.home.AttachCloud(cloud)
	if _, err := cloud.LaunchInstance("xl-1", cloudsim.ExtraLargeSpec("ec2-xl")); err != nil {
		return nil, err
	}
	cfgs := make([]core.NodeConfig, 0, 4)
	for i := 0; i < 3; i++ {
		cfgs = append(cfgs, core.NodeConfig{
			Addr:           fmt.Sprintf("netbook-%d:9000", i+1),
			Machine:        cluster.NetbookSpec(fmt.Sprintf("netbook-%d", i+1)),
			MandatoryBytes: 4 * cluster.GB,
			VoluntaryBytes: 2 * cluster.GB,
			CloudGateway:   i == 0,
		})
	}
	cfgs = append(cfgs, core.NodeConfig{
		Addr:           "desktop:9000",
		Machine:        cluster.DesktopSpec(),
		MandatoryBytes: 16 * cluster.GB,
		VoluntaryBytes: 16 * cluster.GB,
	})
	for _, nc := range cfgs {
		nc := nc
		var n *core.Node
		if err := t.call("core.Home.AddNode", root, 0, 0, func() error {
			var err error
			n, err = sys.home.AddNode(nc)
			return err
		}); err != nil {
			sys.stop()
			return nil, err
		}
		sys.nodes = append(sys.nodes, n)
	}
	rng := rand.New(rand.NewSource(seed))
	training := make([][]byte, 8)
	for i := range training {
		training[i] = make([]byte, 32<<10)
		rng.Read(training[i])
	}
	for _, n := range sys.nodes {
		n.SetTrainingSet(training)
		for _, spec := range services.Builtin() {
			if err := n.DeployService(spec, "performance"); err != nil {
				sys.stop()
				return nil, err
			}
		}
		if err := n.Monitor().PublishOnce(); err != nil {
			sys.stop()
			return nil, err
		}
		n.Monitor().Start()
	}
	for _, spec := range services.Builtin() {
		if err := sys.home.DeployCloudService(spec, "xl-1"); err != nil {
			sys.stop()
			return nil, err
		}
	}
	sys.srv = daemon.NewServer(sys.home)
	sys.served = make(chan error, 1)
	go func() {
		// Closed after the send, so stop does not block when addr has
		// already taken an early Serve error.
		defer close(sys.served)
		sys.served <- sys.srv.Serve("127.0.0.1:0")
	}()
	addr, err := sys.addr()
	if err != nil {
		sys.stop()
		return nil, err
	}
	c, err := daemon.Dial(addr, 5*time.Second)
	if err != nil {
		sys.stop()
		return nil, err
	}
	defer c.Close()
	for i, p := range in.objects {
		err := t.call("daemon.Client.Store", root, int64(i), 0, func() error {
			_, err := c.Store(daemonObject(i), "bin", p, 0, "")
			return err
		})
		res.op("preload", err)
	}
	return sys, nil
}

// addr waits for the server to bind its port.
func (sys *daemonSys) addr() (string, error) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a := sys.srv.Addr(); a != "" {
			return a, nil
		}
		select {
		case err := <-sys.served:
			return "", fmt.Errorf("serve: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	return "", errors.New("daemon did not bind within 5s")
}

// stop closes the server, waits for it and every monitor to exit.
func (sys *daemonSys) stop() {
	if sys.srv != nil {
		sys.srv.Close()
		<-sys.served
	}
	var wg sync.WaitGroup
	for _, n := range sys.nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Monitor().Stop()
		}()
	}
	wg.Wait()
}

type rpcOp struct {
	fetch       bool
	err         error
	lat, server time.Duration
}

type daemonPhase struct {
	phase
	ops           []rpcOp
	dials         []time.Duration
	before, after counters
}

// driveDaemon runs the timed phase: each connection issues its op list
// in a closed loop until the phase's time is up.
func driveDaemon(t *tracer, sys *daemonSys, in daemonInputs, sz daemonSizes, res *result) (*daemonPhase, error) {
	addr, err := sys.addr()
	if err != nil {
		return nil, err
	}
	ph := &daemonPhase{}
	perConn := make([][]rpcOp, sz.conns)
	dials := make([]time.Duration, sz.conns)
	dialErrs := make([]error, sz.conns)
	var mu sync.Mutex // guards res during the phase
	ph.before = snapCounters(sys.home)
	ph.h0 = sampleHost()
	deadline := ph.h0.wall.Add(sz.dur)
	var wg sync.WaitGroup
	for c := 0; c < sz.conns; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := sys.nodes[c%3].Addr()
			t0 := time.Now()
			var cl *daemon.Client
			dialErrs[c] = t.call("daemon.Dial", 0, 0, c+1, func() error {
				var err error
				cl, err = daemon.Dial(addr, 5*time.Second)
				return err
			})
			dials[c] = time.Since(t0)
			if dialErrs[c] != nil {
				return
			}
			defer cl.Close()
			for i, op := range in.ops[c] {
				if !time.Now().Before(deadline) {
					return
				}
				span := t.begin("bench.op", 0, int64(c)<<32|int64(i), c+1)
				r := rpcOp{fetch: op.fetch}
				t0 := time.Now()
				var problem string
				if op.fetch {
					var fr daemon.FetchResult
					r.err = t.call("daemon.Client.Fetch", span, int64(i), c+1, func() error {
						var err error
						fr, err = cl.Fetch(daemonObject(op.object), node)
						return err
					})
					r.server = fr.Total
					if r.err == nil && (fr.Size != int64(sz.objSize) || sha256.Sum256(fr.Data) != in.hashes[op.object]) {
						problem = fmt.Sprintf("daemon-rpc: fetch of %s returned %d bytes that differ from the stored ones", daemonObject(op.object), len(fr.Data))
					}
				} else {
					var sr daemon.StoreResult
					r.err = t.call("daemon.Client.Store", span, int64(i), c+1, func() error {
						var err error
						sr, err = cl.Store(op.name, "bin", in.pool[op.payload], 0, node)
						return err
					})
					r.server = sr.Total
				}
				r.lat = time.Since(t0)
				t.end(span)
				perConn[c] = append(perConn[c], r)
				if problem != "" {
					mu.Lock()
					res.check(false, "%s", problem)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	ph.h1 = sampleHost()
	ph.host = ph.h1.wall.Sub(ph.h0.wall)
	ph.after = snapCounters(sys.home)
	for c := range perConn {
		if dialErrs[c] != nil {
			return nil, fmt.Errorf("dial: %w", dialErrs[c])
		}
		ph.dials = append(ph.dials, dials[c])
		for _, r := range perConn[c] {
			ph.ops = append(ph.ops, r)
			kind := "store"
			if r.fetch {
				kind = "fetch"
			}
			res.op(kind, r.err)
			if r.err != nil {
				continue
			}
			ph.phase.ops++
			ph.lat = append(ph.lat, r.lat)
			ph.userBytes += int64(sz.objSize)
		}
	}
	return ph, nil
}

func runDaemonRPC(cfg config, t *tracer) (*result, error) {
	sz := daemonSizesFor(cfg)
	in := genDaemon(cfg.seed, sz)
	res := newResult()
	var built []*daemonSys
	defer func() {
		var wg sync.WaitGroup
		for _, sys := range built {
			sys := sys
			wg.Add(1)
			go func() {
				defer wg.Done()
				sys.stop()
			}()
		}
		wg.Wait()
	}()
	if !cfg.trace {
		var setups []float64
		for b := 0; b < sz.builds; b++ {
			t0 := time.Now()
			sys, err := buildDaemon(t, cfg.seed, sz, in, res)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			built = append(built, sys)
		}
		sys := built[len(built)-1]
		ph, err := driveDaemon(t, sys, in, sz, res)
		if err != nil {
			return nil, err
		}
		ph.ops = nil
		res.addEndToEnd(&ph.phase, setups, liveHeapMB())
		return res, nil
	}

	sysA, err := buildDaemon(newTracer(false), cfg.seed, sz, in, res)
	if err != nil {
		return nil, err
	}
	built = append(built, sysA)
	phA, err := driveDaemon(newTracer(false), sysA, in, sz, res)
	if err != nil {
		return nil, err
	}
	sys, err := buildDaemon(t, cfg.seed, sz, in, res)
	if err != nil {
		return nil, err
	}
	built = append(built, sys)
	ph, err := driveDaemon(t, sys, in, sz, res)
	if err != nil {
		return nil, err
	}
	var server, overhead []time.Duration
	for _, r := range ph.ops {
		if r.err == nil {
			server = append(server, r.server)
			overhead = append(overhead, r.lat-r.server)
		}
	}
	res.addN("daemon.server_ms", "ms", ms(mean(server)), len(server), "mean")
	res.addN("daemon.overhead_ms", "ms", ms(mean(overhead)), len(overhead), "mean")
	res.addN("daemon.dial_ms", "ms", ms(mean(ph.dials)), len(ph.dials), "mean")
	res.addCounters(ph.after.minus(ph.before), ph.phase.ops, ph.userBytes)
	res.addHost(ph.h0, ph.h1, ph.phase.ops)
	res.add("trace.overhead", "ratio", overheadRatio(&phA.phase, &ph.phase))
	codec, err := probeCodec(t)
	if err != nil {
		return nil, err
	}
	res.add("command.codec_ns", "ns", codec)
	return res, nil
}

// probeCodec times one command packet's encode plus decode, the framing
// every daemon request and reply goes through.
func probeCodec(t *tracer) (float64, error) {
	const rounds = 20000
	pkt := command.Packet{Type: command.TypeFetch, Data: []byte(`{"name":"rpc/obj-000.bin","node":"netbook-1:9000"}`)}
	var buf bytes.Buffer
	var err error
	t0 := time.Now()
	t.call("command.Packet.codec", 0, 0, 0, func() error {
		for i := 0; i < rounds && err == nil; i++ {
			buf.Reset()
			if err = command.Write(&buf, &pkt); err != nil {
				break
			}
			var got *command.Packet
			if got, err = command.Read(&buf); err == nil && !bytes.Equal(got.Data, pkt.Data) {
				err = errors.New("command packet changed in a round trip")
			}
		}
		return err
	})
	return float64(time.Since(t0).Nanoseconds()) / rounds, err
}
