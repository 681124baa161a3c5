package routing

import (
	"slices"

	"ezflow/internal/phy"
	"ezflow/internal/pkt"
)

func init() {
	Register(Info{
		Name:    "bfs",
		Summary: "minimum-hop breadth-first search, lowest-id tie-break (the paper's static agent; default)",
		New:     func(Options) Strategy { return BFS{} },
	})
}

// BFS is the minimum-hop strategy: a breadth-first search from the flow's
// source visiting neighbours in ascending id order, so ties always break
// toward the lowest node id. It is the re-homed legacy mesh.RerouteFlow
// search, byte-identical to the pre-registry behaviour, and ignores link
// quality entirely — every usable link costs one hop.
type BFS struct{}

// Name returns "bfs".
func (BFS) Name() string { return "bfs" }

// Route runs the breadth-first search over g's usable links. The flow id
// is ignored: minimum-hop paths are flow-independent. Each dequeued node
// tests only its Neighbors candidates, so a search costs O(N·degree)
// predicate calls, and the search state is dense slot-indexed slices,
// not maps.
func (BFS) Route(g *Graph, _ pkt.FlowID, src, dst pkt.NodeID) ([]pkt.NodeID, bool) {
	si, ok := g.slot(src)
	if !ok {
		return nil, false
	}
	parent := g.parents()
	parent[si] = int32(si)
	queue := make([]int32, 1, len(g.IDs))
	queue[0] = int32(si)
	var nbrs []pkt.NodeID
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		uid := g.IDs[u]
		nbrs = g.neighbors(uid, nbrs[:0])
		for _, v := range nbrs {
			vi, ok := g.slot(v)
			if !ok || parent[vi] != unreached || !g.Usable(uid, v) {
				continue
			}
			parent[vi] = u
			if v == dst {
				return g.path(parent, vi), true
			}
			queue = append(queue, int32(vi))
		}
	}
	return nil, false
}

// GatewayTree runs a breadth-first search over the transmission-range
// graph rooted at node 0 (the gateway), visiting neighbours in ascending
// id order so the resulting shortest-path tree is deterministic.
// parent[i] is i's predecessor toward the gateway, or -1 if unreachable.
// Topology builders use it both as a connectivity check and to draw
// initial gateway-bound routes (following the parent chain from a node
// yields its minimum-hop path to the gateway).
//
// Candidates come from the same spatial hash the PHY neighbor index is
// built with, so a connectivity pass is O(N·degree) instead of O(N²);
// sorting each cell-neighborhood batch keeps the visit order — and with
// it the resulting tree — identical to the all-pairs scan.
func GatewayTree(pos []phy.Position, txRange float64) []int {
	n := len(pos)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[0] = 0
	g := phy.NewSpatialGrid(pos, txRange)
	queue := make([]int, 0, n)
	queue = append(queue, 0)
	var cand []int32
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		cand = g.Near(pos[u], cand[:0])
		slices.Sort(cand)
		for _, v32 := range cand {
			v := int(v32)
			if parent[v] < 0 && pos[u].Dist(pos[v]) <= txRange {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return parent
}

// Connected reports whether every node reached the gateway in a
// GatewayTree pass.
func Connected(parent []int) bool {
	for _, p := range parent {
		if p < 0 {
			return false
		}
	}
	return true
}
