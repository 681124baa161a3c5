package ezflow_test

import (
	"testing"

	"ezflow/internal/ctl"
	ez "ezflow/internal/ezflow"
	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
	"ezflow/internal/traffic"
)

// deploy installs EZ-Flow over m the way every scenario does: through the
// controller registry, which hands it to ctl.Deploy.
func deploy(t *testing.T, m *mesh.Mesh, opts ez.Options) *ctl.Deployment {
	t.Helper()
	info, err := ctl.Registry.Get("ezflow")
	if err != nil {
		t.Fatal(err)
	}
	dep, ok := info.Deploy(m, ctl.Options{EZ: opts}).(*ctl.Deployment)
	if !ok {
		t.Fatal("ezflow instance is not a *ctl.Deployment")
	}
	return dep
}

// at returns the EZ-Flow controllers installed at node n.
func at(dep *ctl.Deployment, n pkt.NodeID) []*ez.Controller {
	var cs []*ez.Controller
	for _, c := range ctl.EZControllers(dep) {
		if c.Node == n {
			cs = append(cs, c)
		}
	}
	return cs
}

// controller returns the controller at node n watching successor s, or nil.
func controller(dep *ctl.Deployment, n, s pkt.NodeID) *ez.Controller {
	for _, c := range at(dep, n) {
		if c.Successor == s {
			return c
		}
	}
	return nil
}

func chainWithEZ(t *testing.T, hops int, opts ez.Options) (*sim.Engine, *mesh.Mesh, *ctl.Deployment) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := mesh.Chain(eng, hops, phy.DefaultConfig(), mac.DefaultConfig())
	return eng, m, deploy(t, m, opts)
}

func TestDeployPlacesControllers(t *testing.T) {
	_, _, dep := chainWithEZ(t, 4, ez.DefaultOptions())
	// Relays of the 4-hop chain are N1, N2, N3. Controllers watch
	// successors that relay: N0 watches N1, N1 watches N2, N2 watches N3.
	// N3's successor is the destination (never forwards), so no
	// controller there.
	if got := len(ctl.EZControllers(dep)); got != 3 {
		t.Fatalf("controllers = %d, want 3", got)
	}
	if c := controller(dep, 0, 1); c == nil || c.Queue == nil {
		t.Fatal("missing controller N0->N1")
	}
	if controller(dep, 3, 4) != nil {
		t.Fatal("controller watching the destination")
	}
	if got := len(at(dep, 1)); got != 1 {
		t.Fatalf("controllers at N1 = %d", got)
	}
}

func TestControllerEndToEnd(t *testing.T) {
	// Saturate a 5-hop chain and verify the EZ-Flow feedback loop closes:
	// estimates flow, decisions fire, the source's cw rises above the
	// relays' cw, and relay queues stay low on average.
	eng, m, dep := chainWithEZ(t, 5, ez.DefaultOptions())
	src := traffic.NewCBR(m, 1, 2e6, 1028)
	src.Start()
	eng.Run(600 * sim.Second)

	c01 := controller(dep, 0, 1)
	if c01.BOE.Estimates == 0 {
		t.Fatal("BOE produced no estimates")
	}
	if len(c01.CAA.Decisions) == 0 {
		t.Fatal("CAA made no decisions")
	}
	cwSource := c01.Queue.CWmin()
	cwRelay := controller(dep, 2, 3).Queue.CWmin()
	if cwSource <= cwRelay {
		t.Fatalf("source cw %d not above relay cw %d (no penalty discovered)",
			cwSource, cwRelay)
	}
	if peak := controller(dep, 1, 2).Queue.PeakDepth; peak == 0 {
		t.Fatal("relay never buffered anything (no traffic flowed?)")
	}
	// The stabilisation claim: the first relay must not end the run with
	// a saturated buffer.
	if got := m.Node(1).RelayDepth(); got > 45 {
		t.Fatalf("relay N1 ends the run nearly saturated: %d", got)
	}
}

func TestControllerCWTraceMonotoneTimes(t *testing.T) {
	eng, m, dep := chainWithEZ(t, 4, ez.DefaultOptions())
	src := traffic.NewCBR(m, 1, 2e6, 1028)
	src.Start()
	eng.Run(300 * sim.Second)
	for _, c := range ctl.EZControllers(dep) {
		for i := 1; i < len(c.CWTrace); i++ {
			if c.CWTrace[i].At < c.CWTrace[i-1].At {
				t.Fatalf("cw trace times not monotone at %v", c.Node)
			}
		}
	}
}

func TestSniffLossDegradesGracefully(t *testing.T) {
	// §3.2's robustness claim: with 90% of overheard frames dropped the
	// controller still collects estimates and still stabilises, only
	// more slowly.
	run := func(sniffLoss float64) *ez.Controller {
		opts := ez.DefaultOptions()
		opts.SniffLoss = sniffLoss
		eng, m, dep := chainWithEZ(t, 4, opts)
		src := traffic.NewCBR(m, 1, 2e6, 1028)
		src.Start()
		eng.Run(600 * sim.Second)
		return controller(dep, 0, 1)
	}
	lossy, full := run(0.9), run(0)
	if lossy.BOE.Estimates == 0 {
		t.Fatal("no estimates at all under 90% sniff loss")
	}
	if lossy.BOE.Estimates >= full.BOE.Estimates {
		t.Fatal("sniff loss did not reduce the estimate rate")
	}
}

func TestDeployMultiFlowSharedRelay(t *testing.T) {
	// Scenario-1-style merge: the junction node's queue gets exactly one
	// controller per successor, and source nodes of both flows get one.
	eng := sim.NewEngine(1)
	m := mesh.Scenario1(eng, phy.DefaultConfig(), mac.DefaultConfig())
	dep := deploy(t, m, ez.DefaultOptions())
	// Each relay along the shared trunk N4->N3->N2->N1 watches one
	// successor; N1's successor N0 is the gateway destination (no
	// controller).
	for _, nd := range []struct {
		node, succ pkt.NodeID
	}{{4, 3}, {3, 2}, {2, 1}, {12, 10}, {11, 9}, {10, 8}, {9, 7}} {
		if controller(dep, nd.node, nd.succ) == nil {
			t.Errorf("missing controller %v->%v", nd.node, nd.succ)
		}
	}
	if controller(dep, 1, 0) != nil {
		t.Error("controller toward the gateway destination")
	}
}

func TestAttachSingleQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	m := mesh.Chain(eng, 3, phy.DefaultConfig(), mac.DefaultConfig())
	q := m.Node(0).SourceQueue(1)
	dep := deploy(t, m, ez.DefaultOptions())
	var c *ez.Controller
	for _, r := range dep.Relays {
		if r.Caps.Queue() == q {
			c = r.State.(*ez.Controller)
		}
	}
	if c == nil {
		t.Fatal("source queue N0->N1 not attached")
	}
	if c.Node != 0 || c.Successor != 1 || c.Queue != q {
		t.Fatalf("controller identity: %+v", c)
	}
	if len(c.CWTrace) != 1 {
		t.Fatal("initial cw trace point missing")
	}
	if c.CAA == nil || c.BOE == nil {
		t.Fatal("modules not wired")
	}
}
