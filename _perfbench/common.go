package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/core"
	"cloud4home/internal/ids"
	"cloud4home/internal/objstore"
)

const mib = 1 << 20

// counters are the layers' cumulative activity counters at one instant,
// read through their public accessors.
type counters struct {
	lookups, hits     int
	kvHops            int64
	msgs, xfers, wire int64
	spend             cloudsim.Spend
}

func snapCounters(h *core.Home) counters {
	var c counters
	c.lookups, c.hits, _ = h.KV().Stats().Snapshot()
	for _, n := range h.Nodes() {
		c.kvHops += n.OpStats().KVHops
	}
	c.msgs, c.xfers, c.wire = h.Net().Traffic()
	if cl := h.Cloud(); cl != nil {
		c.spend = cl.Spend()
	}
	return c
}

// minus is the activity between snapshot a and c.
func (c counters) minus(a counters) counters {
	return counters{
		lookups: c.lookups - a.lookups, hits: c.hits - a.hits,
		kvHops: c.kvHops - a.kvHops,
		msgs:   c.msgs - a.msgs, xfers: c.xfers - a.xfers, wire: c.wire - a.wire,
		spend: cloudsim.Spend{
			BytesStored: c.spend.BytesStored - a.spend.BytesStored,
			BytesUp:     c.spend.BytesUp - a.spend.BytesUp,
			BytesDown:   c.spend.BytesDown - a.spend.BytesDown,
			Requests:    c.spend.Requests - a.spend.Requests,
			USD:         c.spend.USD - a.spend.USD,
		},
	}
}

// plus sums two activity deltas, as c − (0 − d).
func (c counters) plus(d counters) counters {
	var zero counters
	return c.minus(zero.minus(d))
}

// addCounters reports per-op layer activity from a counters delta.
func (r *result) addCounters(d counters, ops, userBytes int64) {
	n := float64(ops)
	r.add("kv.lookups_per_op", "count", ratio(float64(d.lookups), n))
	r.add("kv.cache_hit_ratio", "ratio", ratio(float64(d.hits), float64(d.lookups)))
	r.add("kv.hops_per_lookup", "count", ratio(float64(d.kvHops), float64(d.lookups)))
	r.add("netsim.msgs_per_op", "count", ratio(float64(d.msgs), n))
	r.add("netsim.transfers_per_op", "count", ratio(float64(d.xfers), n))
	r.add("netsim.wire_bytes_per_user_byte", "ratio", ratio(float64(d.wire), float64(userBytes)))
	r.add("cloudsim.requests_per_op", "count", ratio(float64(d.spend.Requests), n))
	r.add("cloudsim.mb_up", "MB", float64(d.spend.BytesUp)/mib)
	r.add("cloudsim.mb_down", "MB", float64(d.spend.BytesDown)/mib)
	r.add("cloudsim.usd", "USD", d.spend.USD)
}

// binBytes is every byte the home's bins and its cloud hold.
func binBytes(h *core.Home) int64 {
	var total int64
	for _, n := range h.Nodes() {
		for _, bin := range []objstore.Bin{objstore.Mandatory, objstore.Voluntary} {
			if u, err := n.ObjectStore().Usage(bin); err == nil {
				total += u.Used
			}
		}
	}
	if cl := h.Cloud(); cl != nil {
		total += cl.Spend().BytesStored
	}
	return total
}

// phase is the measured outcome of one timed phase.
type phase struct {
	ops       int64 // completed operations
	host      time.Duration
	virt      time.Duration // virtual time the phase spanned (0 on the real clock)
	userBytes int64         // bytes users stored, fetched or processed
	lat       []time.Duration
	h0, h1    hostSample
	fp        uint64 // fingerprint of every virtual result, for the determinism check
}

func (p *phase) opsPerS() float64 { return ratio(float64(p.ops), p.host.Seconds()) }

// pool adds another phase's work to p, as if the two had run back to
// back: host cost sums over the phases only, not what ran between them.
func (p *phase) pool(q *phase) {
	p.ops += q.ops
	p.host += q.host
	p.virt += q.virt
	p.userBytes += q.userBytes
	p.lat = append(p.lat, q.lat...)
	p.h1.cpu += q.h1.cpu - q.h0.cpu
	p.h1.alloc += q.h1.alloc - q.h0.alloc
	p.h1.gcs += q.h1.gcs - q.h0.gcs
}

// addEndToEnd reports the metrics every workload shares. Virtual-clock
// workloads move user bytes per virtual second; daemon-rpc per wall
// second.
func (r *result) addEndToEnd(p *phase, setups []float64, memMB float64) {
	r.addN("setup_s", "s", median(setups), len(setups), "median")
	r.add("ops_per_s", "1/s", p.opsPerS())
	r.add("mem_mb", "MB", memMB)
	r.addLatency("lat", p.lat)
	clock := p.virt
	if clock == 0 {
		clock = p.host
	}
	r.add("mb_per_s", "MB/s", float64(p.userBytes)/mib/clock.Seconds())
	r.addHost(p.h0, p.h1, p.ops)
}

// fingerprint folds durations and strings into a hash; equal inputs in
// equal order give equal fingerprints.
type fingerprint struct{ h uint64 }

func newFingerprint() *fingerprint { return &fingerprint{h: 14695981039346656037} }

func (f *fingerprint) dur(d time.Duration) {
	f.h ^= uint64(d)
	f.h *= 1099511628211
}

func (f *fingerprint) str(s string) {
	h := fnv.New64a()
	h.Write([]byte(s))
	f.dur(time.Duration(h.Sum64()))
}

// probeKV times kv.Store.Get and overlay.Mesh.Route on the given object
// names from one node, after the timed phase. Call inside the clock's
// Run.
func probeKV(t *tracer, parent spanID, h *core.Home, from *core.Node, names []string, r *result) error {
	var getHost, routeHost []time.Duration
	hops := 0
	for i, name := range names {
		key := ids.HashString(name)
		t0 := time.Now()
		err := t.call("kv.Store.Get", parent, int64(i), 0, func() error {
			_, err := h.KV().Get(from.ID(), key)
			return err
		})
		getHost = append(getHost, time.Since(t0))
		if err != nil {
			return fmt.Errorf("probe kv get %s: %w", name, err)
		}
		t0 = time.Now()
		err = t.call("overlay.Mesh.Route", parent, int64(i), 0, func() error {
			rr, err := h.Mesh().Route(from.ID(), key)
			hops += rr.Hops
			return err
		})
		routeHost = append(routeHost, time.Since(t0))
		if err != nil {
			return fmt.Errorf("probe route %s: %w", name, err)
		}
	}
	r.addN("kv.get_host_us", "us", us(mean(getHost)), len(getHost), "mean")
	r.addN("overlay.route_host_us", "us", us(mean(routeHost)), len(routeHost), "mean")
	r.add("overlay.route_hops", "count", ratio(float64(hops), float64(len(names))))
	return nil
}

// spanMeanUS is the mean self time of the named spans, in microseconds.
func spanMeanUS(agg map[string]spanStat, name string) float64 {
	return us(agg[name].meanSelf())
}

// share is k/n as a ratio.
func share(k, n int) float64 { return ratio(float64(k), float64(n)) }

// overheadRatio is untraced over traced ops/s: how much slower the
// traced run went.
func overheadRatio(untraced, traced *phase) float64 {
	return ratio(untraced.opsPerS(), traced.opsPerS())
}
