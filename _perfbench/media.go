package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/services"
	"cloud4home/internal/xenchan"
)

// media-process: FetchProcess calls on real payloads on the paper
// testbed plus an EC2 xl instance. The services run on the desktop, the
// first three netbooks and the cloud; the last two netbooks host none,
// so their requests go to the object's owner or through the full
// decision, which may offload to the cloud. Kernels and payload copies
// dominate host time; city routing and the WAN store path are not
// exercised.

type mediaSizes struct {
	payloads, training, trainingSize, ops, builds int
	minSize, maxSize                              int
}

func mediaSizesFor(cfg config) mediaSizes {
	if cfg.tiny {
		return mediaSizes{payloads: 4, training: 3, trainingSize: 4 << 10, ops: 40, builds: 2, minSize: 16 << 10, maxSize: 64 << 10}
	}
	return mediaSizes{payloads: 24, training: 8, trainingSize: 32 << 10, ops: 1400 * cfg.seconds, builds: 80, minSize: 256 << 10, maxSize: 1 << 20}
}

// mediaService is one deployed service the workload calls.
type mediaService struct {
	name string
	id   uint32
}

var mediaServices = []mediaService{
	{"fdet", services.FaceDetectID},
	{"frec", services.FaceRecognizeID},
	{"x264", services.X264ConvertID},
}

// servedNetbooks is how many netbooks host the services; the others
// must send their requests elsewhere.
const servedNetbooks = 3

type mediaOp struct{ payload, service, node int }

// mediaExpect is what the services kernels return when called directly
// on a payload.
type mediaExpect struct {
	detections int
	match      int
	convLen    int
}

type mediaInputs struct {
	payloads [][]byte
	owners   []int
	training [][]byte
	ops      []mediaOp
	expect   []mediaExpect
}

// genPayload builds an image-like byte stream: 64-byte windows that are
// flat, face-like (mid-band variance) or noise, so the detector finds
// some but not all windows.
func genPayload(rng *rand.Rand, size int) []byte {
	p := make([]byte, size)
	for off := 0; off < size; off += 64 {
		end := off + 64
		if end > size {
			end = size
		}
		kind := rng.Intn(10)
		base := rng.Intn(200)
		for i := off; i < end; i++ {
			switch {
			case kind < 4:
				p[i] = byte(base + rng.Intn(4))
			case kind < 7:
				p[i] = byte(28 + rng.Intn(201))
			default:
				p[i] = byte(rng.Intn(256))
			}
		}
	}
	return p
}

// genMedia makes the payloads, the training set, the op sequence, and
// each payload's expected kernel results. Payload sizes spread evenly
// over the size band and owners rotate over the devices, so the seed
// draws contents and ops but not which device holds how many bytes:
// with 24 payloads, a drawn placement alone moved mb_per_s by 6%
// between seeds.
func genMedia(seed int64, sz mediaSizes, nodes int) (mediaInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := mediaInputs{}
	for i := 0; i < sz.payloads; i++ {
		size := sz.minSize
		if sz.payloads > 1 {
			size += (sz.maxSize - sz.minSize) * i / (sz.payloads - 1)
		}
		in.payloads = append(in.payloads, genPayload(rng, size))
		in.owners = append(in.owners, i%nodes)
	}
	for i := 0; i < sz.training; i++ {
		in.training = append(in.training, genPayload(rng, sz.trainingSize))
	}
	for i := 0; i < sz.ops; i++ {
		in.ops = append(in.ops, mediaOp{payload: rng.Intn(sz.payloads), service: rng.Intn(len(mediaServices)), node: rng.Intn(nodes)})
	}
	for _, p := range in.payloads {
		hits, err := services.DetectFaces(p)
		if err != nil {
			return in, err
		}
		match, err := services.RecognizeFace(p, in.training)
		if err != nil {
			return in, err
		}
		conv, err := services.ConvertVideo(p)
		if err != nil {
			return in, err
		}
		in.expect = append(in.expect, mediaExpect{detections: len(hits), match: match, convLen: len(conv)})
	}
	return in, nil
}

func mediaName(i int) string { return fmt.Sprintf("media/clip-%02d.avi", i) }

type mediaSys struct {
	tb     *cluster.Testbed
	nodes  []*core.Node
	sess   []*core.Session
	stores []time.Duration
	fp     uint64
}

func buildMedia(t *tracer, seed int64, in mediaInputs, res *result) (*mediaSys, error) {
	root := t.begin("bench.setup", 0, 0, 0)
	defer t.end(root)
	sys := &mediaSys{}
	err := t.call("cluster.New", root, 0, 0, func() error {
		var err error
		sys.tb, err = cluster.New(cluster.Options{Seed: seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	sys.nodes = sys.tb.AllNodes()
	var runErr error
	sys.tb.Run(func() {
		runErr = t.call("cloudsim.Cloud.LaunchInstance", root, 0, 0, func() error {
			_, err := sys.tb.Cloud.LaunchInstance("xl-1", cloudsim.ExtraLargeSpec("ec2-xl"))
			return err
		})
		if runErr != nil {
			return
		}
		for i, n := range sys.nodes {
			n.SetTrainingSet(in.training)
			if i >= servedNetbooks && n != sys.tb.Desktop {
				continue
			}
			for _, spec := range services.Builtin() {
				spec := spec
				if runErr = t.call("core.Node.DeployService", root, 0, 0, func() error {
					return n.DeployService(spec, "performance")
				}); runErr != nil {
					return
				}
			}
		}
		for _, spec := range services.Builtin() {
			spec := spec
			if runErr = t.call("core.Home.DeployCloudService", root, 0, 0, func() error {
				return sys.tb.Home.DeployCloudService(spec, "xl-1")
			}); runErr != nil {
				return
			}
		}
		if runErr = t.call("cluster.Testbed.PublishResources", root, 0, 0, sys.tb.PublishResources); runErr != nil {
			return
		}
		for _, n := range sys.nodes {
			var s *core.Session
			if runErr = t.call("core.Node.OpenSession", root, 0, 0, func() error {
				var err error
				s, err = n.OpenSession()
				return err
			}); runErr != nil {
				return
			}
			sys.sess = append(sys.sess, s)
		}
		fp := newFingerprint()
		for i, p := range in.payloads {
			s := sys.sess[in.owners[i]]
			var sr core.StoreResult
			err := t.call("core.Session.StoreObjectData", root, int64(i), 0, func() error {
				var err error
				sr, err = s.StoreObjectData(mediaName(i), "video/avi", p, core.StoreOptions{Blocking: true})
				return err
			})
			res.op("preload", err)
			if err != nil {
				continue
			}
			sys.stores = append(sys.stores, sr.Total)
			fp.dur(sr.Total)
			fp.str(sr.Location)
		}
		fp.dur(time.Duration(sys.tb.V.Now().UnixNano()))
		sys.fp = fp.h
	})
	return sys, runErr
}

type mediaPhase struct {
	phase
	results       []core.ProcessResult
	requesters    []string
	before, after counters
}

// processMedia runs the timed phase: one closed-loop client issuing
// every generated FetchProcess in order, each from its drawn device.
func processMedia(t *tracer, sys *mediaSys, in mediaInputs, res *result) *mediaPhase {
	ph := &mediaPhase{}
	ph.before = snapCounters(sys.tb.Home)
	ph.h0 = sampleHost()
	fp := newFingerprint()
	sys.tb.Run(func() {
		v := sys.tb.V
		start := v.Now()
		for i, op := range in.ops {
			svc := mediaServices[op.service]
			s := sys.sess[op.node]
			span := t.begin("bench.op", 0, int64(i), 1)
			t0 := v.Now()
			var pr core.ProcessResult
			err := t.call("core.Session.FetchProcess", span, int64(i), 1, func() error {
				var err error
				pr, err = s.FetchProcess(mediaName(op.payload), svc.name, svc.id)
				return err
			})
			lat := v.Now().Sub(t0)
			t.end(span)
			res.op(svc.name, err)
			fp.dur(lat)
			if err != nil {
				continue
			}
			fp.str(pr.Target)
			checkProcess(res, svc.name, pr, in.payloads[op.payload], in.expect[op.payload])
			ph.ops++
			ph.userBytes += int64(len(in.payloads[op.payload]))
			ph.lat = append(ph.lat, lat)
			pr.Output = nil // checked above; keeping every output would hold gigabytes
			ph.results = append(ph.results, pr)
			ph.requesters = append(ph.requesters, sys.nodes[op.node].Addr())
		}
		ph.virt = v.Now().Sub(start)
	})
	ph.h1 = sampleHost()
	ph.host = ph.h1.wall.Sub(ph.h0.wall)
	ph.after = snapCounters(sys.tb.Home)
	fp.dur(ph.virt)
	ph.fp = fp.h
	return ph
}

// checkProcess compares a process result with the direct kernel call.
func checkProcess(res *result, svc string, pr core.ProcessResult, payload []byte, want mediaExpect) {
	switch svc {
	case "fdet":
		res.check(pr.Detections == want.detections, "media-process: fdet found %d faces, kernel %d", pr.Detections, want.detections)
		// A byte compare against the generated payload costs a tenth of
		// hashing it, which would otherwise show in ops_per_s.
		res.check(bytes.Equal(pr.Output, payload), "media-process: fdet output differs from the stored payload")
	case "frec":
		res.check(pr.MatchID == want.match, "media-process: frec matched %d, kernel %d", pr.MatchID, want.match)
	case "x264":
		n, err := services.ConvertedSourceLen(pr.Output)
		res.check(len(pr.Output) == want.convLen && err == nil && n == int64(len(payload)),
			"media-process: x264 output %d bytes for a %d-byte source, kernel %d", len(pr.Output), n, want.convLen)
	}
}

func runMediaProcess(cfg config, t *tracer) (*result, error) {
	sz := mediaSizesFor(cfg)
	in, err := genMedia(cfg.seed, sz, 6)
	if err != nil {
		return nil, err
	}
	res := newResult()
	if !cfg.trace {
		var sys *mediaSys
		var setups []float64
		for b := 0; b < sz.builds; b++ {
			t0 := time.Now()
			next, err := buildMedia(t, cfg.seed, in, res)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			if sys != nil {
				res.check(next.fp == sys.fp, "media-process: set-up builds of one seed differ")
			}
			sys = next
		}
		ph := processMedia(t, sys, in, res)
		ph.results = nil
		res.addEndToEnd(&ph.phase, setups, liveHeapMB())
		runtime.KeepAlive(sys) // mem_mb counts the built system
		return res, nil
	}

	sysA, err := buildMedia(newTracer(false), cfg.seed, in, res)
	if err != nil {
		return nil, err
	}
	phA := processMedia(newTracer(false), sysA, in, res)
	phA.results = nil
	sys, err := buildMedia(t, cfg.seed, in, res)
	if err != nil {
		return nil, err
	}
	ph := processMedia(t, sys, in, res)
	res.check(ph.fp == phA.fp, "media-process: two runs of one seed gave different virtual results")

	var inMove, outMove, exec, decision []time.Duration
	remote := 0
	for i, pr := range ph.results {
		inMove = append(inMove, pr.Breakdown.InputMove)
		outMove = append(outMove, pr.Breakdown.OutputMove)
		exec = append(exec, pr.Breakdown.Exec)
		decision = append(decision, pr.Breakdown.Decision)
		if pr.Target != ph.requesters[i] {
			remote++
		}
	}
	agg := aggregate(t.snapshot())
	res.add("core.process_host_us", "us", spanMeanUS(agg, "core.Session.FetchProcess"))
	res.add("core.store_host_us", "us", spanMeanUS(agg, "core.Session.StoreObjectData"))
	res.addLatency("core.store_virt", sys.stores)
	res.addLatency("core.process_virt", ph.lat)
	res.addN("core.input_move_virt_ms", "ms", ms(mean(inMove)), len(inMove), "mean")
	res.addN("core.output_move_virt_ms", "ms", ms(mean(outMove)), len(outMove), "mean")
	res.add("core.process_remote_share", "ratio", share(remote, len(ph.results)))
	res.addN("machine.exec_virt_ms", "ms", ms(mean(exec)), len(exec), "mean")
	res.addN("policy.decision_virt_ms", "ms", ms(mean(decision)), len(decision), "mean")
	res.add("vclock.virt_s_per_host_s", "ratio", ratio(ph.virt.Seconds(), ph.host.Seconds()))
	var live int64
	for _, p := range in.payloads {
		live += int64(len(p))
	}
	res.add("objstore.bytes_per_user_byte", "ratio", ratio(float64(binBytes(sys.tb.Home)), float64(live)))
	res.addCounters(ph.after.minus(ph.before), ph.ops, ph.userBytes)
	res.addHost(ph.h0, ph.h1, ph.ops)
	res.add("trace.overhead", "ratio", overheadRatio(&phA.phase, &ph.phase))
	if err := probeMedia(t, sys, in, res); err != nil {
		return nil, err
	}
	return res, nil
}

// probeMedia times the layers the process path copies and computes
// through, on the workload's own payloads: kv and overlay lookups, the
// owner's object store, a guest channel, and each service kernel.
func probeMedia(t *tracer, sys *mediaSys, in mediaInputs, res *result) error {
	probe := t.begin("bench.probe", 0, 0, 0)
	defer t.end(probe)
	var live int64
	names := make([]string, len(in.payloads))
	for i, p := range in.payloads {
		live += int64(len(p))
		names[i] = mediaName(i)
	}
	mb := float64(live) / mib
	var perr error
	var getHost, xferHost, xferVirt time.Duration
	sys.tb.Run(func() {
		if perr = probeKV(t, probe, sys.tb.Home, sys.nodes[0], names, res); perr != nil {
			return
		}
		var ch *xenchan.Channel
		if perr = t.call("xenchan.Open", probe, 0, 0, func() error {
			var err error
			ch, err = xenchan.Open(sys.tb.V, xenchan.DefaultConfig())
			return err
		}); perr != nil {
			return
		}
		defer ch.Close()
		for i, p := range in.payloads {
			owner := sys.nodes[in.owners[i]]
			var got []byte
			t0 := time.Now()
			if perr = t.call("objstore.Store.Get", probe, int64(i), 0, func() error {
				var err error
				_, got, err = owner.ObjectStore().Get(names[i])
				return err
			}); perr != nil {
				return
			}
			getHost += time.Since(t0)
			res.check(bytes.Equal(got, p), "media-process: %s in %s differs from the stored payload", names[i], owner.Addr())
			t0 = time.Now()
			if perr = t.call("xenchan.Channel.Transfer", probe, int64(i), 0, func() error {
				out, d, err := ch.Transfer(p)
				xferVirt += d
				if err == nil {
					res.check(bytes.Equal(out, p), "media-process: channel transfer changed %s", names[i])
				}
				return err
			}); perr != nil {
				return
			}
			xferHost += time.Since(t0)
		}
	})
	if perr != nil {
		return perr
	}
	res.add("objstore.get_host_us_per_mb", "us/MB", us(getHost)/mb)
	res.add("xenchan.transfer_host_us_per_mb", "us/MB", us(xferHost)/mb)
	res.addN("xenchan.interdomain_virt_ms", "ms", ms(xferVirt)/float64(len(in.payloads)), len(in.payloads), "mean")

	kernels := []struct {
		metric, span string
		fn           func([]byte) error
	}{
		{"services.fdet_host_ms_per_mb", "services.DetectFaces", func(p []byte) error { _, err := services.DetectFaces(p); return err }},
		{"services.frec_host_ms_per_mb", "services.RecognizeFace", func(p []byte) error { _, err := services.RecognizeFace(p, in.training); return err }},
		{"services.x264_host_ms_per_mb", "services.ConvertVideo", func(p []byte) error { _, err := services.ConvertVideo(p); return err }},
	}
	for _, k := range kernels {
		var host time.Duration
		for i, p := range in.payloads {
			t0 := time.Now()
			if err := t.call(k.span, probe, int64(i), 0, func() error { return k.fn(p) }); err != nil {
				return err
			}
			host += time.Since(t0)
		}
		res.add(k.metric, "ms/MB", ms(host)/mb)
	}
	return nil
}
