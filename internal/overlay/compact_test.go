package overlay

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloud4home/internal/ids"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current build")

// recordWire logs every wire message so a mesh's traffic can be
// compared send-for-send against a recorded log.
type recordWire struct {
	log [][2]ids.ID
}

func (w *recordWire) Send(from, to ids.ID) {
	w.log = append(w.log, [2]ids.ID{from, to})
}

// render appends the wire log to b.
func (w *recordWire) render(b *strings.Builder) {
	for _, m := range w.log {
		fmt.Fprintf(b, "wire %s %s\n", m[0], m[1])
	}
}

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d is %q, recorded flat mesh has %q", name, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, recorded flat mesh has %d", name, len(gl), len(wl))
	}
}

// TestCompactMeshMatchesFlat: every routing answer of the arena-backed
// mesh — owners, next hops, replica sets, neighbours, full routes, and
// the exact wire-message log of joins — equals the transcript recorded
// in testdata from the flat mesh (one private membership tree and
// prefix table per router) it replaced.
func TestCompactMeshMatchesFlat(t *testing.T) {
	w := &recordWire{}
	m := NewMesh(w)
	for i := 0; i < 48; i++ {
		if _, err := m.Join(fmt.Sprintf("city-%d:9000", i)); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	w.render(&b)
	nodes := m.Nodes()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		key := ids.ID(rng.Uint64()) & ids.Max()
		from := nodes[rng.Intn(len(nodes))]
		r, _ := m.Router(from)
		next, fwd := r.NextHop(key)
		fmt.Fprintf(&b, "%d %s from %s: owner=%s next=%s/%v", trial, key, from, r.Owner(key).ID, next.ID, fwd)
		for _, mem := range r.ReplicaSet(key, rng.Intn(len(nodes)+2)+1) {
			fmt.Fprintf(&b, " r=%s", mem.ID)
		}
		l, rt, ok := r.Neighbors()
		fmt.Fprintf(&b, " nbrs=%s,%s/%v", l.ID, rt.ID, ok)
		res, err := m.Route(from, key)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		fmt.Fprintf(&b, " route=%s hops=%d path=%d\n", res.Owner.ID, res.Hops, len(res.Path))
	}
	checkGolden(t, "mesh_routes.golden", b.String())
}

// TestCompactMeshChurnMatchesFlat drives a random join/leave/fail
// schedule and checks membership, owners, and the wire log against the
// transcript recorded from the flat mesh.
func TestCompactMeshChurnMatchesFlat(t *testing.T) {
	w := &recordWire{}
	m := NewMesh(w)
	rng := rand.New(rand.NewSource(23))
	var live []string
	var b strings.Builder
	nextAddr := 0
	join := func() {
		addr := fmt.Sprintf("churn-%d:9000", nextAddr)
		nextAddr++
		if _, err := m.Join(addr); err != nil {
			t.Fatal(err)
		}
		live = append(live, addr)
	}
	for i := 0; i < 12; i++ {
		join()
	}
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(live) <= 4:
			join()
		default:
			i := rng.Intn(len(live))
			id := ids.HashString(live[i])
			live = append(live[:i], live[i+1:]...)
			if op == 1 {
				if err := m.Leave(id); err != nil {
					t.Fatal(err)
				}
			} else if err := m.Fail(id); err != nil {
				t.Fatal(err)
			}
		}
		if m.Len() != len(live) {
			t.Fatalf("step %d: mesh %d, live %d", step, m.Len(), len(live))
		}
		key := ids.ID(rng.Uint64()) & ids.Max()
		from := ids.HashString(live[rng.Intn(len(live))])
		r, _ := m.Router(from)
		if r.Len() != len(live) {
			t.Fatalf("step %d: router view %d, live %d", step, r.Len(), len(live))
		}
		fmt.Fprintf(&b, "%d len=%d owner(%s)=%s\n", step, m.Len(), key, r.Owner(key).ID)
	}
	w.render(&b)
	checkGolden(t, "mesh_churn.golden", b.String())
}

// TestCompactGlobalHandlersFire: OnJoinAll/OnDepartureAll run once per
// event.
func TestCompactGlobalHandlersFire(t *testing.T) {
	m := NewMesh(FreeWire{})
	var joins, departs []ids.ID
	m.OnJoinAll(func(j Member) { joins = append(joins, j.ID) })
	m.OnDepartureAll(func(d Member) { departs = append(departs, d.ID) })
	for i := 0; i < 5; i++ {
		if _, err := m.Join(fmt.Sprintf("gh-%d:1", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(joins) != 5 {
		t.Fatalf("%d join events, want 5", len(joins))
	}
	if err := m.Leave(joins[1]); err != nil {
		t.Fatal(err)
	}
	if err := m.Fail(joins[3]); err != nil {
		t.Fatal(err)
	}
	if len(departs) != 2 || departs[0] != joins[1] || departs[1] != joins[3] {
		t.Fatalf("departure events %v, want [%s %s]", departs, joins[1], joins[3])
	}
}

// TestArenaBytesGrowsAndShrinks: the arena footprint gauge tracks
// membership.
func TestArenaBytesGrowsAndShrinks(t *testing.T) {
	m := NewMesh(FreeWire{})
	if m.ArenaBytes() != 0 {
		t.Fatalf("empty arena reports %d bytes", m.ArenaBytes())
	}
	var nodes []ids.ID
	for i := 0; i < 10; i++ {
		r, err := m.Join(fmt.Sprintf("ab-%d:1", i))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, r.Self().ID)
	}
	full := m.ArenaBytes()
	if full <= 0 {
		t.Fatalf("arena bytes = %d after 10 joins", full)
	}
	for _, id := range nodes[:5] {
		if err := m.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	if half := m.ArenaBytes(); half >= full || half <= 0 {
		t.Fatalf("arena bytes %d after leaves, was %d", half, full)
	}
}

// TestSuperPeerLookupMatchesFlatOwner is the hierarchical-lookup property
// test: across random memberships and random fault schedules, with 1, 2,
// and 4 regional domains, routing from every live node resolves every
// key to exactly the owner flat (tier-less) routing picks, and spine
// traffic is attributed to SuperHops.
func TestSuperPeerLookupMatchesFlatOwner(t *testing.T) {
	for _, regions := range []int{1, 2, 4} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(100*int64(regions) + seed))
			sp, ref := NewMesh(FreeWire{}), NewMesh(FreeWire{})
			sp.EnableSuperPeers(regions)
			n := 6 + rng.Intn(10)
			var live []string
			for i := 0; i < n; i++ {
				addr := fmt.Sprintf("sp-%d-%d-%d:9000", regions, seed, i)
				if _, err := sp.Join(addr); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Join(addr); err != nil {
					t.Fatal(err)
				}
				live = append(live, addr)
			}
			// Random fault schedule: a few crashes and departures.
			for k := 0; k < 1+rng.Intn(3) && len(live) > 3; k++ {
				i := rng.Intn(len(live))
				id := ids.HashString(live[i])
				live = append(live[:i], live[i+1:]...)
				var err1, err2 error
				if rng.Intn(2) == 0 {
					err1, err2 = sp.Fail(id), ref.Fail(id)
				} else {
					err1, err2 = sp.Leave(id), ref.Leave(id)
				}
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
			}
			for trial := 0; trial < 60; trial++ {
				key := ids.ID(rng.Uint64()) & ids.Max()
				from := ids.HashString(live[rng.Intn(len(live))])
				fromR, _ := ref.Router(from)
				wantOwner := fromR.Owner(key)
				res, err := sp.Route(from, key)
				if err != nil {
					t.Fatalf("regions=%d seed=%d: route: %v", regions, seed, err)
				}
				if res.Owner != wantOwner {
					t.Fatalf("regions=%d seed=%d: key %s owner %v, flat owner %v",
						regions, seed, key, res.Owner, wantOwner)
				}
				if res.Hops > 3 {
					t.Fatalf("regions=%d: %d hops through the super-peer tier, want <= 3", regions, res.Hops)
				}
				if res.SuperHops > res.Hops {
					t.Fatalf("SuperHops %d > Hops %d", res.SuperHops, res.Hops)
				}
				if regions == 1 && res.SuperHops > 1 {
					t.Fatalf("single region: %d super hops, want <= 1", res.SuperHops)
				}
			}
		}
	}
}

// TestSuperPeerPromotionAfterFailure: when a region's super-peer dies,
// the next lowest-addressed member of the domain takes over.
func TestSuperPeerPromotionAfterFailure(t *testing.T) {
	m := NewMesh(FreeWire{})
	m.EnableSuperPeers(2)
	for i := 0; i < 16; i++ {
		if _, err := m.Join(fmt.Sprintf("promo-%d:9000", i)); err != nil {
			t.Fatal(err)
		}
	}
	probe := ids.ID(1) << 20 // a key in region 0
	sp0, ok := m.SuperPeer(probe)
	if !ok {
		t.Fatal("region 0 has no super-peer despite members")
	}
	if err := m.Fail(sp0.ID); err != nil {
		t.Fatal(err)
	}
	sp1, ok := m.SuperPeer(probe)
	if ok && sp1.ID == sp0.ID {
		t.Fatal("failed super-peer still listed")
	}
	if ok && sp1.ID <= sp0.ID {
		t.Fatalf("promoted super-peer %s not the next lowest address above %s", sp1.ID, sp0.ID)
	}
}
