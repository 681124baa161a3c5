package ezflow_test

import (
	"testing"

	ez "ezflow/internal/ezflow"
	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
	"ezflow/internal/traffic"
)

// TestDeployTreePerSuccessorControllers exercises the §7 extension: on a
// downlink tree, every interior node gets one controller per successor
// queue, each watching its own successor, and the controllers act
// independently.
func TestDeployTreePerSuccessorControllers(t *testing.T) {
	eng := sim.NewEngine(1)
	m := mesh.Tree(eng, 3, 2, phy.DefaultConfig(), mac.DefaultConfig())
	dep := deploy(t, m, ez.DefaultOptions())

	// Gateway N0 forwards to relays N1, N2, N3 (all interior): three
	// controllers at N0, one per successor.
	if got := len(at(dep, 0)); got != 3 {
		t.Fatalf("gateway controllers = %d, want 3", got)
	}
	succs := map[pkt.NodeID]bool{}
	for _, c := range at(dep, 0) {
		succs[c.Successor] = true
		if c.Queue.NextHop() != c.Successor {
			t.Fatalf("controller %v->%v bound to queue toward %v",
				c.Node, c.Successor, c.Queue.NextHop())
		}
	}
	if !succs[1] || !succs[2] || !succs[3] {
		t.Fatalf("gateway successors watched: %v", succs)
	}
	// Interior nodes forward only to leaves: no controllers there.
	if len(at(dep, 1)) != 0 {
		t.Fatalf("interior-to-leaf node has %d controllers, want 0", len(at(dep, 1)))
	}
}

// TestTreeControllersActIndependently overloads one branch only and
// verifies that only that branch's controller reacts while the others keep
// their windows.
func TestTreeControllersActIndependently(t *testing.T) {
	eng := sim.NewEngine(1)
	m := mesh.Tree(eng, 3, 2, phy.DefaultConfig(), mac.DefaultConfig())
	dep := deploy(t, m, ez.DefaultOptions())

	// Flows 1..3 descend through N1, 4..6 through N2, 7..9 through N3.
	// Saturate only the flows of the first branch.
	for _, f := range []pkt.FlowID{1, 2, 3} {
		src := traffic.NewCBR(m, f, 7e5, 1028)
		src.Start()
	}
	// A trickle on one other-branch flow to keep its BOE sampled.
	trickle := traffic.NewCBR(m, 7, 2e4, 1028)
	trickle.Start()

	eng.Run(900 * sim.Second)

	hot := controller(dep, 0, 1)
	cold := controller(dep, 0, 3)
	if hot == nil || cold == nil {
		t.Fatal("missing controllers")
	}
	if hot.BOE.Estimates == 0 {
		t.Fatal("hot branch BOE produced no estimates")
	}
	if hot.Queue.CWmin() <= cold.Queue.CWmin() {
		t.Fatalf("hot branch cw %d not above cold branch cw %d",
			hot.Queue.CWmin(), cold.Queue.CWmin())
	}
}
