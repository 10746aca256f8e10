package overlay

import (
	"fmt"
	"testing"

	"cloud4home/internal/ids"
)

func benchMesh(b *testing.B, n int) (*Mesh, []ids.ID) {
	b.Helper()
	m := NewMesh(FreeWire{})
	nodeIDs := make([]ids.ID, 0, n)
	for i := 0; i < n; i++ {
		r, err := m.Join(fmt.Sprintf("bench-%d:1", i))
		if err != nil {
			b.Fatal(err)
		}
		nodeIDs = append(nodeIDs, r.Self().ID)
	}
	return m, nodeIDs
}

func BenchmarkNextHop64Nodes(b *testing.B) {
	m, nodeIDs := benchMesh(b, 64)
	r, _ := m.Router(nodeIDs[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.NextHop(ids.ID(i) & ids.Max())
	}
}

func BenchmarkOwner64Nodes(b *testing.B) {
	m, nodeIDs := benchMesh(b, 64)
	r, _ := m.Router(nodeIDs[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Owner(ids.ID(i) & ids.Max())
	}
}

func BenchmarkRoute64Nodes(b *testing.B) {
	m, nodeIDs := benchMesh(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Route(nodeIDs[i%len(nodeIDs)], ids.ID(i)&ids.Max()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinLeave(b *testing.B) {
	m, _ := benchMesh(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := m.Join(fmt.Sprintf("ephemeral-%d:1", i))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Leave(r.Self().ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnJoinLeave measures whole-mesh churn (join + leave of one
// node) across membership sizes: an event costs O(log n) arena work, not
// an update at every router, so the numbers stay flat as n grows.
func BenchmarkChurnJoinLeave(b *testing.B) {
	for _, n := range []int{256, 2048, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := NewMesh(FreeWire{})
			for i := 0; i < n; i++ {
				if _, err := m.Join(fmt.Sprintf("cc-%d:1", i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := m.Join("cc-ephemeral:1")
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Leave(r.Self().ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
