package routing

import (
	"ezflow/internal/pkt"
)

func init() {
	Register(Info{
		Name:    "kshortest",
		Summary: "deterministic Yen k-shortest multipath, flows spread over the alternatives round-robin",
		New:     func(opts Options) Strategy { FillDefaults(&opts); return &KShortest{K: opts.K} },
	})
}

// KShortest ranks the K loop-free shortest-hop paths with Yen's algorithm
// (breadth-first search as the inner shortest-path routine, so every spur
// inherits BFS's lowest-id tie-break) and assigns flow f the path at rank
// (f-1) mod |paths|. Flow 1 therefore always gets the plain BFS route,
// and concurrent flows between the same endpoints spread over the
// alternatives instead of piling onto one geodesic — the multipath
// complement of the paper's single-route scenarios.
//
// Determinism: candidate paths are ordered by (hop count, then
// lexicographic node-id sequence), so the ranking — and with it every
// flow's selection — is a pure function of the graph.
type KShortest struct {
	// K is the number of alternative paths ranked (see Options.K).
	K int
}

// Name returns "kshortest".
func (*KShortest) Name() string { return "kshortest" }

// Route ranks the k shortest paths and picks the flow's slot.
func (s *KShortest) Route(g *Graph, flow pkt.FlowID, src, dst pkt.NodeID) ([]pkt.NodeID, bool) {
	paths := s.Paths(g, src, dst)
	if len(paths) == 0 {
		return nil, false
	}
	slot := (int64(flow) - 1) % int64(len(paths))
	if slot < 0 {
		slot += int64(len(paths))
	}
	return paths[slot], true
}

// Paths returns up to K loop-free paths src..dst in deterministic rank
// order (shortest first). An empty result means src and dst are
// disconnected.
func (s *KShortest) Paths(g *Graph, src, dst pkt.NodeID) [][]pkt.NodeID {
	k := s.K
	if k <= 0 {
		k = DefaultOptions().K
	}
	first, ok := BFS{}.Route(g, 0, src, dst)
	if !ok {
		return nil
	}
	found := [][]pkt.NodeID{first}
	var candidates [][]pkt.NodeID

	// One spur graph serves every spur search: it shares g's candidate
	// lists (a superset of its own usable links, which only ever ban
	// more), and its banned sets are refilled per spur.
	bannedEdge := make(map[[2]pkt.NodeID]bool)
	bannedNode := make(map[pkt.NodeID]bool)
	sub := &Graph{
		IDs:       g.IDs,
		LinkLoss:  g.LinkLoss,
		Measured:  g.Measured,
		Neighbors: g.Neighbors,
		Usable: func(a, b pkt.NodeID) bool {
			if bannedNode[a] || bannedNode[b] || bannedEdge[[2]pkt.NodeID{a, b}] {
				return false
			}
			return g.Usable(a, b)
		},
	}

	for len(found) < k {
		prev := found[len(found)-1]
		// Each node of the newest path except the destination is a spur:
		// ban the edges previous paths take out of the shared root, ban
		// the root's interior nodes, and search for a deviation.
		for i := 0; i < len(prev)-1; i++ {
			spur := prev[i]
			root := prev[:i+1]
			clear(bannedEdge)
			for _, p := range found {
				if len(p) > i && samePrefix(p, root) {
					bannedEdge[[2]pkt.NodeID{p[i], p[i+1]}] = true
				}
			}
			clear(bannedNode)
			for _, u := range root[:len(root)-1] {
				bannedNode[u] = true
			}
			tail, ok := BFS{}.Route(sub, 0, spur, dst)
			if !ok {
				continue
			}
			cand := append(append([]pkt.NodeID(nil), root[:len(root)-1]...), tail...)
			if !containsPath(found, cand) && !containsPath(candidates, cand) {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(candidates); i++ {
			if pathLess(candidates[i], candidates[best]) {
				best = i
			}
		}
		found = append(found, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return found
}

// samePrefix reports whether p starts with the given root path.
func samePrefix(p, root []pkt.NodeID) bool {
	if len(p) < len(root) {
		return false
	}
	for i := range root {
		if p[i] != root[i] {
			return false
		}
	}
	return true
}

// containsPath reports whether the set already holds an identical path.
func containsPath(set [][]pkt.NodeID, p []pkt.NodeID) bool {
	for _, q := range set {
		if samePath(p, q) {
			return true
		}
	}
	return false
}

// samePath reports whether two paths are identical.
func samePath(a, b []pkt.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pathLess is the deterministic candidate order: fewer hops first, then
// the lexicographically smaller node-id sequence.
func pathLess(a, b []pkt.NodeID) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
