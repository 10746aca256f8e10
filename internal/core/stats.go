package core

import (
	"sync/atomic"
	"time"
)

// OpStats counts a node's VStore++ activity. All fields are cumulative
// since the node joined; snapshots are safe to read concurrently.
type OpStats struct {
	Stores       int64
	Fetches      int64
	Processes    int64
	Deletes      int64
	BytesStored  int64
	BytesFetched int64
	// CacheHits/CacheMisses count dom0 data-cache outcomes on remote
	// fetches; both stay zero when the cache is disabled.
	CacheHits   int64
	CacheMisses int64
	// ShardsExecuted counts kernel shards run by the sharded compute
	// plane; zero while ComputePlaneConfig.Workers ≤ 1.
	ShardsExecuted int64
	// OverlapSaved accumulates the latency recovered by overlapping
	// input movement with execution, versus running the phases serially.
	OverlapSaved time.Duration
	// SpecLaunches counts process operations hedged onto two candidates;
	// SpecWins counts hedges where the secondary finished first, and
	// SpecCancels counts losers that aborted at a phase boundary.
	SpecLaunches int64
	SpecWins     int64
	SpecCancels  int64
	// FetchRetries counts fetches (and process input moves) that entered
	// the fault-tolerance fallback ladder after losing a holder; zero
	// while FaultConfig.Fallback is off.
	FetchRetries int64
	// ObjectsRepaired counts objects whose metadata this node rewrote
	// during post-crash payload repair; ReplicasRestored counts the fresh
	// payload copies it placed doing so. Both stay zero while
	// FaultConfig.Repair is off.
	ObjectsRepaired  int64
	ReplicasRestored int64
	// CloudProbes counts charged HEAD round trips (Cloud.Stat) this node
	// issued asking a backend whether it holds an object — the fallback
	// ladder's cloud rung and the process path's input-move substitute.
	// Each one burned real modeled WAN time; the free Has oracle is
	// never consulted on the data path.
	CloudProbes int64
	// ShardsPlaced counts erasure-coded shards this node pushed at store
	// time; ShardsRestored counts shards re-placed during post-crash
	// repair; ShardReconstructs counts payload rebuilds from k shards on
	// the fetch/repair path. All stay zero unless FederationConfig
	// enables erasure coding.
	ShardsPlaced      int64
	ShardsRestored    int64
	ShardReconstructs int64
	// AsyncPlaceDrops counts non-blocking stores whose background
	// placement failed — the object was accepted into dom0 but never
	// reached stable storage (the prototype's degrade-to-drop path).
	AsyncPlaceDrops int64
	// FederatedProbes counts neighbour-home metadata queries issued by
	// this node's fetch misses; the federated lookup memo exists to keep
	// this from growing linearly in peers × misses.
	FederatedProbes int64
	// CoalescedFetches counts remote fetches that joined another in-flight
	// fetch of the same object instead of running their own wire transfer;
	// zero unless PerfConfig.CoalesceFetch is on.
	CoalescedFetches int64
	// KVHops counts every routing hop this node's metadata operations
	// took; SuperPeerHops the subset that landed on a regional super-peer
	// (zero unless ScaleConfig.SuperPeerRegions > 1), so KVHops −
	// SuperPeerHops is the home-tier remainder.
	KVHops        int64
	SuperPeerHops int64
	// ArenaBytes is a snapshot-time gauge of the shared membership
	// arena's resident bytes (whole-mesh, not per-node).
	ArenaBytes int64
}

// opCounters is the node-internal atomic representation. The counters
// are lock-free by design — hot paths bump them without a mutex — so
// the `// guarded by` convention does not apply here; atomicity is the
// whole discipline.
type opCounters struct {
	stores           atomic.Int64
	fetches          atomic.Int64
	processes        atomic.Int64
	deletes          atomic.Int64
	bytesStored      atomic.Int64
	bytesFetched     atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
	shardsExecuted   atomic.Int64
	overlapSaved     atomic.Int64 // nanoseconds
	specLaunches     atomic.Int64
	specWins         atomic.Int64
	specCancels      atomic.Int64
	fetchRetries      atomic.Int64
	objectsRepaired   atomic.Int64
	replicasRestored  atomic.Int64
	cloudProbes       atomic.Int64
	shardsPlaced      atomic.Int64
	shardsRestored    atomic.Int64
	shardReconstructs atomic.Int64
	asyncPlaceDrops  atomic.Int64
	federatedProbes  atomic.Int64
	coalescedFetches atomic.Int64
	kvHops           atomic.Int64
	superPeerHops    atomic.Int64
}

func (c *opCounters) snapshot() OpStats {
	return OpStats{
		Stores:         c.stores.Load(),
		Fetches:        c.fetches.Load(),
		Processes:      c.processes.Load(),
		Deletes:        c.deletes.Load(),
		BytesStored:    c.bytesStored.Load(),
		BytesFetched:   c.bytesFetched.Load(),
		CacheHits:      c.cacheHits.Load(),
		CacheMisses:    c.cacheMisses.Load(),
		ShardsExecuted: c.shardsExecuted.Load(),
		OverlapSaved:   time.Duration(c.overlapSaved.Load()),
		SpecLaunches:   c.specLaunches.Load(),
		SpecWins:       c.specWins.Load(),
		SpecCancels:    c.specCancels.Load(),

		FetchRetries:      c.fetchRetries.Load(),
		ObjectsRepaired:   c.objectsRepaired.Load(),
		ReplicasRestored:  c.replicasRestored.Load(),
		CloudProbes:       c.cloudProbes.Load(),
		ShardsPlaced:      c.shardsPlaced.Load(),
		ShardsRestored:    c.shardsRestored.Load(),
		ShardReconstructs: c.shardReconstructs.Load(),
		AsyncPlaceDrops:  c.asyncPlaceDrops.Load(),
		FederatedProbes:  c.federatedProbes.Load(),
		CoalescedFetches: c.coalescedFetches.Load(),
		KVHops:           c.kvHops.Load(),
		SuperPeerHops:    c.superPeerHops.Load(),
	}
}

// OpStats returns the node's cumulative operation counters, plus the
// snapshot-time arena gauge.
func (n *Node) OpStats() OpStats {
	st := n.ops.snapshot()
	st.ArenaBytes = n.home.mesh.ArenaBytes()
	return st
}
