// Package overlay implements the Chimera-style structured peer-to-peer
// overlay VStore++ builds its metadata layer on (§III-A). Like Chimera —
// "a lightweight C implementation of a structured overlay that provides
// functionality [similar] to prefix routing protocols like Tapestry and
// Pastry" — routing proceeds hex-digit by hex-digit toward the node whose
// 40-bit identifier is numerically closest to the key.
//
// Each node has (i) a prefix routing table and (ii) the "logical tree
// view of other nodes in the overlay, implemented as a red-black tree"
// (paper Fig 2). At home-cloud scale (a handful of devices) the tree holds
// the full membership; routing still steps hop-by-hop through the prefix
// table so lookup costs behave like the real protocol's.
//
// The membership view is complete and identical at every node, so the
// mesh interns it once, in a shared Arena, instead of replicating a tree
// and a materialised prefix table into every router. A router holds only
// its identity and a pointer to the arena, and recomputes owner, prefix
// slot and replica answers from the shared tree on demand; the answers
// are the ones per-router copies would hold (see arena.go), while a
// router costs O(1) resident bytes instead of O(N).
package overlay

import (
	"fmt"

	"cloud4home/internal/ids"
	"cloud4home/internal/rbtree"
)

// Member is the membership record one node keeps about another.
type Member struct {
	// ID is the node's 40-bit overlay identifier (hash of its address).
	ID ids.ID
	// Addr is the node's reachable address ("10.0.0.7:9000").
	Addr string
}

// Router is the per-node routing state machine. It is pure: it neither
// sends messages nor sleeps; Mesh (or a real transport) drives it.
type Router struct {
	self  Member
	arena *Arena // shared membership, owned by the mesh
}

// newRouter returns a router backed by the shared arena. The caller
// (Mesh.Join) interns self into the arena.
func newRouter(self Member, a *Arena) *Router {
	return &Router{self: self, arena: a}
}

// Self returns this node's membership record.
func (r *Router) Self() Member { return r.self }

// slot returns prefix-table entry (l, d): the Closer-minimum, relative
// to self, of the members in the slot's ID range.
//
// c4h:hotpath
func (r *Router) slot(l, d int) (Member, bool) {
	lo, hi := classRange(r.self.ID, l, d)
	r.arena.mu.RLock()
	defer r.arena.mu.RUnlock()
	return closestInRange(r.arena.members, lo, hi, r.self.ID)
}

// Members returns a snapshot of the membership (including self) in ring
// order.
func (r *Router) Members() []Member {
	r.arena.mu.RLock()
	defer r.arena.mu.RUnlock()
	return appendMembers(make([]Member, 0, r.arena.members.Len()), r.arena.members)
}

// Len returns the number of known members including self.
func (r *Router) Len() int { return r.arena.Len() }

// Neighbors returns this node's left and right neighbours in the logical
// tree: the nodes notified on join and departure (§III-A). With fewer
// than two peers, both neighbours may be the same node or absent.
func (r *Router) Neighbors() (left, right Member, ok bool) {
	r.arena.mu.RLock()
	defer r.arena.mu.RUnlock()
	return treeNeighbors(r.arena.members, r.self.ID)
}

func treeNeighbors(t *rbtree.Tree[Member], self ids.ID) (left, right Member, ok bool) {
	if t.Len() < 2 {
		return Member{}, Member{}, false
	}
	_, l, _ := t.Predecessor(self)
	_, rt, _ := t.Successor(self)
	return l, rt, true
}

// Owner returns the member whose ID is numerically closest to key under
// the ring metric — the node responsible for the key ("the object
// information is routed to a node with an ID closest to the hash value").
//
// c4h:hotpath
func (r *Router) Owner(key ids.ID) Member {
	r.arena.mu.RLock()
	defer r.arena.mu.RUnlock()
	if m, ok := closestToKey(r.arena.members, key); ok {
		return m
	}
	return r.self
}

// IsOwner reports whether this node is responsible for key.
//
// c4h:hotpath
func (r *Router) IsOwner(key ids.ID) bool {
	return r.Owner(key).ID == r.self.ID
}

// NextHop performs one prefix-routing step toward key. It returns
// (self, false) when this node is the key's owner, otherwise the next
// node to forward to and true.
//
// c4h:hotpath
func (r *Router) NextHop(key ids.ID) (Member, bool) {
	owner := r.Owner(key)
	if owner.ID == r.self.ID {
		return r.self, false
	}
	l := ids.CommonPrefixLen(key, r.self.ID)
	if l < ids.Digits {
		if m, ok := r.slot(l, key.Digit(l)); ok {
			return m, true
		}
	}
	// No prefix match: fall back to the member strictly closest to the
	// key — the owner, which is not us here.
	return owner, true
}

// ReplicaSet returns the n distinct members closest to key in ring-metric
// order (the owner first). Used by the key-value store's replication and
// by departure-time key redistribution.
func (r *Router) ReplicaSet(key ids.ID, n int) []Member {
	r.arena.mu.RLock()
	defer r.arena.mu.RUnlock()
	if n > r.arena.members.Len() {
		n = r.arena.members.Len()
	}
	return appendReplicaSet(make([]Member, 0, n), r.arena.members, key, n)
}

// String renders a short diagnostic form.
func (r *Router) String() string {
	return fmt.Sprintf("router(%s @ %s, %d members)", r.self.ID, r.self.Addr, r.Len())
}
