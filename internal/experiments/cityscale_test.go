package experiments

import (
	"encoding/json"
	"testing"
)

// TestCityScaleIdentity runs a scaled-down city sweep and asserts the
// city-scale core's defining property: the shared membership arena and
// the targeted-wakeup clock reproduce, bit for bit, the virtual-time
// metrics recorded in testdata from the flat core (one membership tree
// and prefix table per router, broadcast-wakeup clock, eager monitors)
// they replaced. It also checks the sweep's shape and that per-node host
// memory does not grow with the city, as flat membership's did.
func TestCityScaleIdentity(t *testing.T) {
	res, err := RunCityScale(CityScaleConfig{
		Seed:        7,
		Nodes:       []int{64, 200},
		Ops:         300,
		Objects:     40,
		ChurnEvents: 3,
		Regions:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(cityScaleVirtual(res), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cityscale.json", string(out)+"\n")

	var repairTotal int64
	for _, row := range res.Rows {
		m := row.Metrics
		if m.Fetches == 0 || m.Stores == 0 {
			t.Fatalf("n=%d: workload did not execute: %+v", m.Nodes, m)
		}
		if m.MeanLookupHops <= 0 {
			t.Fatalf("n=%d: no lookup hops recorded", m.Nodes)
		}
		if m.RepairMessages < 0 {
			t.Fatalf("n=%d: negative repair traffic", m.Nodes)
		}
		repairTotal += m.RepairMessages
		t.Logf("n=%d hops=%.2f fetch=%v msgs=%d repair=%d bytes/node=%d",
			m.Nodes, m.MeanLookupHops, m.FetchMean, m.Messages, m.RepairMessages, row.BytesPerNode)
	}
	// Flat membership cost O(N) bytes per node, so tripling the city
	// tripled it; the arena's per-node cost is constant.
	if small, large := res.Rows[0].BytesPerNode, res.Rows[1].BytesPerNode; small > 0 && large > 2*small {
		t.Errorf("bytes/node grew from %d at n=64 to %d at n=200", small, large)
	}

	// Some sweep sizes can legitimately see zero repair traffic (the
	// crashed nodes held no authoritative entries), but the sweep as a
	// whole must exercise the repair path.
	if repairTotal <= 0 {
		t.Errorf("no repair traffic anywhere in the sweep")
	}

	sp := res.SuperPeer
	if sp.Regions != 4 || sp.Nodes != 64 {
		t.Fatalf("super-peer cell ran with wrong shape: %+v", sp)
	}
	// home → regional aggregator → key's aggregator → owner is the longest
	// route the two-level tier permits.
	if sp.MaxHops > 3 {
		t.Errorf("super-peer lookup exceeded 3 hops: %+v", sp)
	}
	if sp.SuperHops == 0 || sp.HomeHops == 0 {
		t.Errorf("per-tier hop split degenerate: %+v", sp)
	}
	t.Logf("superpeer n=%d r=%d hops=%.2f (max %d) super=%d home=%d",
		sp.Nodes, sp.Regions, sp.MeanHops, sp.MaxHops, sp.SuperHops, sp.HomeHops)
}
