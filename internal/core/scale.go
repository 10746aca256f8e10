package core

// ScaleConfig gates modeled city-scale behaviour. The zero value is the
// paper's behaviour: eager periodic monitors and no aggregation tier.
// Both gates change which events happen — fewer publish events and a
// different hop structure are the point. The city-scale core itself
// (one interned membership arena, the heap clock with targeted wakeups)
// is not gated: it is the only code path.
type ScaleConfig struct {
	// LazyMonitors materialises resource records on demand instead of
	// running one periodic publisher goroutine per node: a node's record
	// is published when a decision path first reads it and refreshed only
	// once its validity window (the monitor period) has lapsed. At city
	// scale this removes N always-on sleepers and N puts per period for
	// records nobody reads.
	LazyMonitors bool
	// SuperPeerRegions, when > 1, partitions the ID space into that many
	// contiguous regions and routes inter-region traffic through each
	// region's super-peer (its lowest-addressed member), giving the
	// home → regional aggregator → owner hierarchy a city of homes needs
	// instead of a flat hop sequence. Lookup results (owners, values) are
	// unchanged — only the hop structure differs; ≤ 1 keeps flat routing.
	SuperPeerRegions int
}

// Enabled reports whether any gate is on.
func (s ScaleConfig) Enabled() bool {
	return s.LazyMonitors || s.SuperPeerRegions > 1
}
