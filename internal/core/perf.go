package core

// PerfConfig gates modeled hot-path behaviour. The zero value is the
// paper's behaviour. The simulator's result-preserving speedups — the
// lazily seeded per-operation RNG, the shared membership arena and the
// targeted-wakeup clock — are not gates: they are the only code path,
// pinned to the paper-mode goldens under internal/experiments/testdata.
type PerfConfig struct {
	// CoalesceFetch merges concurrent remote fetches of the same object:
	// the first requester runs the wire transfer, followers park on a
	// deterministic event and are charged exactly the virtual time until
	// the leader's bytes arrive, then copy the payload locally. This is a
	// modeled change: the shared transfer is the point.
	CoalesceFetch bool
}
