package mesh

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/routing"
	"ezflow/internal/sim"
)

// TestRoutingNeighborsMatchScan is the differential test of the
// neighbor-list route search: on seeded lossy random disks mutated by
// node moves, severed links and node churn, the PHY index's decode lists
// must equal the all-pairs InTxRange filter, and every strategy must
// return the same path (or the same failure) over the repair graph as
// over the same graph with Neighbors unset — the all-pairs scan.
func TestRoutingNeighborsMatchScan(t *testing.T) {
	for _, tc := range []struct{ n, steps, pairs int }{{50, 60, 4}, {200, 10, 2}} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			neighborsMatchScan(t, tc.n, tc.steps, tc.pairs)
		})
	}
}

func neighborsMatchScan(t *testing.T, n, steps, pairs int) {
	seed := int64(n)
	rng := rand.New(rand.NewSource(seed))
	m := RandomDiskLossy(sim.NewEngine(seed), n, 0, seed, 0.5, phy.DefaultConfig(), mac.DefaultConfig())
	ids := m.Ch.NodeIDs()
	var strategies []routing.Strategy
	for _, name := range []string{"bfs", "etx", "kshortest"} {
		strategies = append(strategies, strategyOf(t, name))
	}
	radius := DefaultDiskRadius(n)

	check := func(step int) {
		t.Helper()
		for _, a := range ids {
			var want []pkt.NodeID
			for _, b := range ids {
				if b != a && m.Ch.InTxRange(a, b) {
					want = append(want, b)
				}
			}
			if got := m.Ch.DecodeNeighbors(a, nil); !slices.Equal(got, want) {
				t.Fatalf("step %d: DecodeNeighbors(%v) = %v, want %v", step, a, got, want)
			}
		}
		g := m.repairGraph()
		scan := &routing.Graph{IDs: g.IDs, Usable: g.Usable, LinkLoss: g.LinkLoss, Measured: g.Measured}
		for k := 0; k < pairs; k++ {
			src, dst := ids[rng.Intn(n)], ids[rng.Intn(n)]
			flow := pkt.FlowID(k + 1)
			for _, s := range strategies {
				got, gotOK := s.Route(g, flow, src, dst)
				want, wantOK := s.Route(scan, flow, src, dst)
				if gotOK != wantOK || !slices.Equal(got, want) {
					t.Fatalf("step %d: %s %v->%v: neighbor walk %v,%v, all-pairs scan %v,%v",
						step, s.Name(), src, dst, got, gotOK, want, wantOK)
				}
			}
		}
	}

	check(0)
	for step := 1; step <= steps; step++ {
		a := ids[rng.Intn(n)]
		switch rng.Intn(4) {
		case 0: // sever or restore a decode-range link, both directions
			if nb := m.Ch.DecodeNeighbors(a, nil); len(nb) > 0 {
				b := nb[rng.Intn(len(nb))]
				down := rng.Intn(3) > 0
				m.Ch.SetLinkDown(a, b, down)
				m.Ch.SetLinkDown(b, a, down)
			}
		case 1: // node churn
			m.Node(a).MAC.SetDown(rng.Intn(3) > 0)
		default: // the common case: a node moves
			p := m.Ch.Position(a)
			m.MoveNode(a, phy.Position{
				X: p.X + rng.NormFloat64()*radius/4,
				Y: p.Y + rng.NormFloat64()*radius/4,
			})
		}
		check(step)
	}
}

// TestRouteAllocsPerPath pins the dense search state: bfs and etx
// allocate a fixed handful of slot-indexed slices, the neighbor buffer
// and the path per route, not a map entry per visited node.
func TestRouteAllocsPerPath(t *testing.T) {
	m := RandomDiskLossy(sim.NewEngine(1), 200, 0, 1, 0.5, phy.DefaultConfig(), mac.DefaultConfig())
	g := m.RoutingGraph()
	route := m.Route(1)
	src, dst := route[0], route[len(route)-1]
	for _, name := range []string{"bfs", "etx"} {
		s := strategyOf(t, name)
		if _, ok := s.Route(g, 1, src, dst); !ok {
			t.Fatalf("%s: no route on a connected disk", name)
		}
		if got := testing.AllocsPerRun(20, func() { s.Route(g, 1, src, dst) }); got > 10 {
			t.Errorf("%s: %v allocs per route, want at most 10", name, got)
		}
	}
}
