package kv

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cloud4home/internal/ids"
	"cloud4home/internal/overlay"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current build")

// logWire records every Send so a store's traffic can be compared
// message-for-message against a recorded log.
type logWire struct {
	mu  sync.Mutex
	log [][2]ids.ID
}

func (w *logWire) Send(from, to ids.ID) {
	w.mu.Lock()
	w.log = append(w.log, [2]ids.ID{from, to})
	w.mu.Unlock()
}

func (w *logWire) snapshot() [][2]ids.ID {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([][2]ids.ID(nil), w.log...)
}

// churnTranscript drives a deterministic workload — puts, gets, joins,
// leaves, crashes — against a store over a fresh mesh and renders every
// operation result followed by the complete wire log.
func churnTranscript(t *testing.T, seed int64) string {
	t.Helper()
	var b strings.Builder
	wire := &logWire{}
	mesh := overlay.NewMesh(wire)
	store := New(mesh, wire, Options{ReplicationFactor: 2, CacheEnabled: true})
	var alive []ids.ID
	for i := 0; i < 10; i++ {
		r, err := mesh.Join(fmt.Sprintf("10.9.%d.1:7000", i+1))
		if err != nil {
			t.Fatal(err)
		}
		store.Attach(r.Self().ID)
		alive = append(alive, r.Self().ID)
	}
	rng := rand.New(rand.NewSource(seed))
	nextAddr := 100
	for step := 0; step < 120; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // put
			from := alive[rng.Intn(len(alive))]
			key := ids.HashString(fmt.Sprintf("obj-%d", rng.Intn(12)))
			pr, err := store.Put(from, key, []byte(fmt.Sprintf("v%d", step)), Overwrite)
			fmt.Fprintf(&b, "%d put %s %s: %+v err=%v\n", step, from, key, pr, err)
		case op < 8: // get
			from := alive[rng.Intn(len(alive))]
			key := ids.HashString(fmt.Sprintf("obj-%d", rng.Intn(12)))
			gr, err := store.Get(from, key)
			fmt.Fprintf(&b, "%d get %s %s: hops=%d cache=%v v%d %q err=%v\n",
				step, from, key, gr.Hops, gr.FromCache, gr.Value.Version, gr.Value.Data, err)
		case op == 8: // join + attach
			addr := fmt.Sprintf("10.9.200.%d:7000", nextAddr)
			nextAddr++
			r, err := mesh.Join(addr)
			fmt.Fprintf(&b, "%d join %s err=%v\n", step, addr, err)
			if err == nil {
				store.Attach(r.Self().ID)
				alive = append(alive, r.Self().ID)
			}
		default: // leave or crash
			if len(alive) <= 4 {
				continue
			}
			i := rng.Intn(len(alive))
			id := alive[i]
			alive = append(alive[:i], alive[i+1:]...)
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "%d depart %s\n", step, id)
				if err := store.Depart(id); err != nil {
					t.Fatal(err)
				}
			} else {
				fmt.Fprintf(&b, "%d fail %s\n", step, id)
				if err := mesh.Fail(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, m := range wire.snapshot() {
		fmt.Fprintf(&b, "wire %s %s\n", m[0], m[1])
	}
	return b.String()
}

// TestCompactStoreMatchesFlat requires the store over the shared
// membership arena — global churn handlers, dirty-set walks — to
// reproduce, operation for operation and message for message, the
// transcript recorded in testdata from the flat-membership store
// (per-router membership copies, per-node churn handlers, full attach
// sweep) it replaced. This pins the dirty-set and global-handler
// equivalence argument in kv.go.
func TestCompactStoreMatchesFlat(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			got := churnTranscript(t, seed)
			path := filepath.Join("testdata", fmt.Sprintf("churn_seed%d.golden", seed))
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
					t.Fatalf("transcript line %d is %q, recorded flat store has %q", i+1, gl[i], wl[i])
				}
			}
			if len(gl) != len(wl) {
				t.Fatalf("transcript has %d lines, recorded flat store has %d", len(gl), len(wl))
			}
		})
	}
}
