package routing

import (
	"math"

	"ezflow/internal/pkt"
)

func init() {
	Register(Info{
		Name:    "etx",
		Summary: "minimum expected-transmission-count (ETX) over calibrated loss, measured MAC counters once links carry traffic",
		New:     func(opts Options) Strategy { FillDefaults(&opts); return &ETX{MinAcked: opts.MinAcked} },
	})
}

// ETX is De Couto's expected-transmission-count metric: each link costs
// the expected number of MAC transmissions a delivery needs, and the
// route is the minimum-cost path under Dijkstra. Link cost comes from two
// sources, in priority order:
//
//  1. Measured: once the forwarder's queues toward the next hop have
//     carried at least MinAcked packets, cost = (acked+retries)/acked —
//     the PR 6 per-link observability counters turned into a live link
//     metric, so mid-run route repair avoids links that have proven bad.
//  2. Calibrated: 1/((1-p_fwd)·(1-p_rev)) from the channel's configured
//     erasure probabilities (the paper's Table 1 inputs; data travels
//     forward, the ACK travels back). Loss-free links cost exactly 1, so
//     with no calibration ETX degenerates to minimum hop count.
//
// Determinism: nodes are settled in (cost, then lowest-id) order and
// neighbours relaxed in ascending id order with strict improvement, so
// equal-cost ties always resolve toward the path found first in id order.
type ETX struct {
	// MinAcked is the measured-sample floor (see Options.MinAcked).
	MinAcked uint64
}

// Name returns "etx".
func (*ETX) Name() string { return "etx" }

// LinkCost returns the expected transmission count of the directed link
// a->b under this strategy's measurement rules, or +Inf when either
// direction is certain to erase. It is exported so experiments and tests
// can report the cost of an installed path.
func (e *ETX) LinkCost(g *Graph, a, b pkt.NodeID) float64 {
	if g.Measured != nil {
		if acked, retries, ok := g.Measured(a, b); ok && acked >= e.MinAcked {
			return float64(acked+retries) / float64(acked)
		}
	}
	var pf, pr float64
	if g.LinkLoss != nil {
		pf, pr = g.LinkLoss(a, b), g.LinkLoss(b, a)
	}
	if pf >= 1 || pr >= 1 {
		return math.Inf(1)
	}
	return 1 / ((1 - pf) * (1 - pr))
}

// Route runs Dijkstra over the usable links with ETX link costs. The flow
// id is ignored: the cheapest path is flow-independent.
func (e *ETX) Route(g *Graph, _ pkt.FlowID, src, dst pkt.NodeID) ([]pkt.NodeID, bool) {
	si, ok := g.slot(src)
	if !ok {
		return nil, false
	}
	di, ok := g.slot(dst)
	if !ok {
		return nil, false
	}
	parent := g.parents()
	dist := make([]float64, len(g.IDs))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	done := make([]bool, len(g.IDs))
	var nbrs []pkt.NodeID
	dist[si] = 0
	parent[si] = int32(si)

	// Selection scans for the unsettled minimum, O(V) per settled node.
	// Topologies top out in the hundreds of nodes, and the ascending scan
	// doubles as the lowest-id tie-break, which a binary heap would not
	// give for free. Relaxation tests only the settled node's Neighbors
	// candidates, so the link predicate and costs run O(N·degree) times.
	for {
		u := unreached
		for i := range dist {
			if !done[i] && parent[i] != unreached && (u == unreached || dist[i] < dist[u]) {
				u = i
			}
		}
		if u == unreached {
			return nil, false
		}
		if u == di {
			break
		}
		done[u] = true
		uid := g.IDs[u]
		nbrs = g.neighbors(uid, nbrs[:0])
		for _, vid := range nbrs {
			v, ok := g.slot(vid)
			if !ok || done[v] || !g.Usable(uid, vid) {
				continue
			}
			c := e.LinkCost(g, uid, vid)
			if math.IsInf(c, 1) {
				continue
			}
			if nd := dist[u] + c; nd < dist[v] {
				dist[v] = nd
				parent[v] = int32(u)
			}
		}
	}
	return g.path(parent, di), true
}

// PathCost sums a path's link costs under this strategy's rules — the
// expected total transmissions one delivery needs end to end.
func (e *ETX) PathCost(g *Graph, path []pkt.NodeID) float64 {
	var sum float64
	for i := 0; i+1 < len(path); i++ {
		sum += e.LinkCost(g, path[i], path[i+1])
	}
	return sum
}
