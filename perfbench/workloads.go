package main

import (
	"fmt"

	"ezflow"
	"ezflow/internal/campaign"
	"ezflow/internal/dynamics"
	"ezflow/internal/mesh"
	"ezflow/internal/mobility"
	"ezflow/internal/sim"
)

// workload is one set of inputs the benchmark runs, generated from the
// workload seed. A simulation workload lists its runs; the campaign
// workload gives a campaign spec instead.
type workload struct {
	Name     string
	Runs     func(seed int64) []runSpec
	Campaign func(seed int64) campaign.Spec
	// Check, when non-nil, tests the shape of one pass's results.
	Check func(recs []runRecord) error
}

var workloads = []workload{
	{Name: "paper", Runs: paperRuns, Check: paperShape},
	{Name: "disk-400", Runs: diskRuns},
	{Name: "mobile-gateway", Runs: mobileRuns},
	{Name: "campaign", Campaign: campaignSpec},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// paperHorizon is the paper's standard run length.
const paperHorizon = 600 * ezflow.Second

// paperRuns are the paper's evaluation runs at its horizon, each under
// 802.11 and under EZ-Flow with 2 Mb/s CBR sources: the 4-hop chain
// (Fig. 1), the testbed with F1+F2 (Fig. 4, Table 2), Scenario 1 (Figs.
// 6-8) and Scenario 2 (Table 3, Figs. 10-11). The scenarios' flow
// schedules are the paper's, scaled to fit the horizon.
func paperRuns(seed int64) []runSpec {
	const rate = 2e6
	scaled := func(paperEnd float64) func(float64) ezflow.Time {
		return func(t float64) ezflow.Time { return sim.FromSeconds(t * paperHorizon.Seconds() / paperEnd) }
	}
	s1, s2 := scaled(2504), scaled(4500)
	var out []runSpec
	for _, mode := range []ezflow.Mode{ezflow.Mode80211, ezflow.ModeEZFlow} {
		cfg := ezflow.DefaultConfig()
		cfg.Seed = seed
		cfg.Mode = mode
		cfg.Duration = paperHorizon
		tb := cfg
		tb.MAC.HardwareCWCap = 1 << 10 // the testbed's MadWifi cap (§4.1)
		out = append(out,
			runSpec{Name: "chain4/" + mode.String(), Cfg: cfg,
				Build: func(e *sim.Engine) *mesh.Mesh { return mesh.Chain(e, 4, cfg.PHY, cfg.MAC) },
				Flows: []ezflow.FlowSpec{{Flow: 1, RateBps: rate, Stop: paperHorizon}}},
			runSpec{Name: "testbed-f1f2/" + mode.String(), Cfg: tb,
				Build: func(e *sim.Engine) *mesh.Mesh { return mesh.Testbed(e, tb.PHY, tb.MAC) },
				Flows: []ezflow.FlowSpec{{Flow: 1, RateBps: rate}, {Flow: 2, RateBps: rate}}},
			runSpec{Name: "scenario1/" + mode.String(), Cfg: cfg,
				Build: func(e *sim.Engine) *mesh.Mesh { return mesh.Scenario1(e, cfg.PHY, cfg.MAC) },
				Flows: []ezflow.FlowSpec{
					{Flow: 1, RateBps: rate, Start: s1(5), Stop: s1(2504)},
					{Flow: 2, RateBps: rate, Start: s1(605), Stop: s1(1804)}}},
			runSpec{Name: "scenario2/" + mode.String(), Cfg: cfg,
				Build: func(e *sim.Engine) *mesh.Mesh { return mesh.Scenario2(e, cfg.PHY, cfg.MAC) },
				Flows: []ezflow.FlowSpec{
					{Flow: 1, RateBps: rate, Start: s2(5), Stop: s2(4500)},
					{Flow: 2, RateBps: rate, Start: s2(5), Stop: s2(3605)},
					{Flow: 3, RateBps: rate, Start: s2(1805), Stop: s2(3605)}}},
		)
	}
	return out
}

// paperShape checks Fig. 1's claim on the 4-hop chain: under 802.11 the
// first relay's mean queue is at least twice EZ-Flow's, and EZ-Flow's
// throughput is no lower.
func paperShape(recs []runRecord) error {
	var plain, ez *ezflow.Result
	for _, r := range recs {
		switch r.Name {
		case "chain4/" + ezflow.Mode80211.String():
			plain = r.Result
		case "chain4/" + ezflow.ModeEZFlow.String():
			ez = r.Result
		}
	}
	if plain == nil || ez == nil {
		return fmt.Errorf("paper shape: chain runs missing")
	}
	qp, qe := plain.MeanQueue[1], ez.MeanQueue[1]
	if qp < 2*qe {
		return fmt.Errorf("paper shape: 802.11 first-relay queue %.2f is not 2x EZ-Flow's %.2f", qp, qe)
	}
	tp, te := plain.Flows[1].MeanThroughputKbps, ez.Flows[1].MeanThroughputKbps
	if te < tp {
		return fmt.Errorf("paper shape: EZ-Flow throughput %.1f kb/s below 802.11's %.1f", te, tp)
	}
	return nil
}

// diskPlacements is the number of 400-node placements per pass; each
// runs once with bfs and once with etx routing. The placements are the
// same for every seed: set-up and event-loop cost depend strongly on
// the placement (the connectivity resampling, route lengths), so drawing
// them from the seed would swamp the figures with seed-to-seed spread.
// The seed drives channel access instead.
const diskPlacements = 3

// diskRuns are 400-node lossy random disks under EZ-Flow over a short
// horizon, so set-up is about half of each run.
func diskRuns(seed int64) []runSpec {
	var out []runSpec
	for i := 0; i < diskPlacements; i++ {
		place := campaign.DeriveSeed(0, "disk-400", i)
		for _, rt := range []string{"bfs", "etx"} {
			cfg := ezflow.DefaultConfig()
			cfg.Seed = seed
			cfg.Mode = ezflow.ModeEZFlow
			cfg.Routing = rt
			cfg.Duration = 10 * ezflow.Second
			cfg.Bin = ezflow.Second // bins must fit the short horizon
			out = append(out, runSpec{Name: fmt.Sprintf("disk400-%d/%s", i, rt), Cfg: cfg,
				Build: func(e *sim.Engine) *mesh.Mesh {
					return mesh.RandomDiskLossy(e, 400, 0, place, 0.5, cfg.PHY, cfg.MAC)
				},
				Flows: []ezflow.FlowSpec{{Flow: 1, RateBps: 2e6}}})
		}
	}
	return out
}

// mobileWorld fixes the mobile workload's 200-node placement and its
// waypoint trajectories: route-repair cost depends strongly on both, so
// drawing them from the seed would swamp the figures with seed-to-seed
// spread. The seed drives client bursts and channel access instead.
const mobileWorld = 1

// mobileRuns is a 200-node disk under EZ-Flow for 60 s: waypoint
// movement at 3 m/s with the gateway pinned, 16 on/off downlink clients
// plus the rim flow, and a scripted link flap and relay churn on the rim
// flow's route, both with route repair.
func mobileRuns(seed int64) []runSpec {
	cfg := ezflow.DefaultConfig()
	cfg.Seed = seed
	cfg.Mode = ezflow.ModeEZFlow
	cfg.Duration = 60 * ezflow.Second
	cfg.Mobility = &mobility.Config{Model: "waypoint", Opts: mobility.Options{SpeedMps: 3}, Seed: mobileWorld}
	cfg.Workload = &ezflow.WorkloadSpec{Clients: 16, OnMeanSec: 5, OffMeanSec: 5}
	sec := func(s float64) ezflow.Time { return sim.FromSeconds(s) }
	return []runSpec{{Name: "waypoint200", Cfg: cfg,
		Build: func(e *sim.Engine) *mesh.Mesh { return mesh.RandomDisk(e, 200, 0, mobileWorld, cfg.PHY, cfg.MAC) },
		Flows: []ezflow.FlowSpec{{Flow: 1, RateBps: 2e5}},
		Script: func(sc *ezflow.Scenario) *dynamics.Script {
			a, b := dynamics.MiddleLink(sc.Mesh, 1)
			s := &dynamics.Script{Events: dynamics.Flap(a, b, sec(20), sec(30), true)}
			if len(sc.Mesh.Route(1)) >= 3 {
				relay := dynamics.MiddleRelay(sc.Mesh, 1)
				s.Events = append(s.Events, dynamics.Churn(relay, sec(35), sec(45), false, true)...)
			}
			return s
		}}}
}

// campaignSpec sweeps fixed topologies, so every replication of a point
// starts from the same t=0 world: {10x10 grid, scenario 2} x {802.11,
// EZ-Flow} x flap {0,1}, three replications each, 20 s per run.
func campaignSpec(seed int64) campaign.Spec {
	spec := campaign.Spec{Name: "perfbench", Reps: 3, BaseSeed: seed, DurationSec: 20, RateBps: 2e6}
	for _, s := range []string{"topology=grid,scenario2", "hops=10", "mode=802.11,ezflow", "flap=0,1"} {
		ax, err := campaign.ParseSweep(s)
		if err != nil {
			panic(err) // the sweeps above are constants
		}
		spec.Axes = append(spec.Axes, ax)
	}
	return spec
}

// campaignWorlds are the t=0 worlds the campaign engine builds for its
// replications, rebuilt here through the public constructors so the
// campaign's set-up cost is timed apart from the engine. The flap
// script, attached by the engine after the build, is left out.
func campaignWorlds(spec campaign.Spec) []runSpec {
	points, err := spec.Enumerate()
	if err != nil {
		panic(err)
	}
	var out []runSpec
	for _, p := range points {
		for rep := 0; rep < spec.Reps; rep++ {
			cfg := ezflow.DefaultConfig()
			cfg.Seed = campaign.DeriveSeed(spec.BaseSeed, p.Label, rep)
			cfg.Mode = p.Mode
			cfg.Duration = sim.FromSeconds(spec.DurationSec)
			rs := runSpec{Name: fmt.Sprintf("%s/%d", p.Label, rep), Cfg: cfg}
			switch p.Topology {
			case "grid":
				rs.Build = func(e *sim.Engine) *mesh.Mesh { return mesh.Grid(e, p.Hops, p.Hops, cfg.PHY, cfg.MAC) }
				rs.Flows = []ezflow.FlowSpec{{Flow: 1, RateBps: p.RateBps}, {Flow: 2, RateBps: p.RateBps}}
			case "scenario2":
				rs.Build = func(e *sim.Engine) *mesh.Mesh { return mesh.Scenario2(e, cfg.PHY, cfg.MAC) }
				rs.Flows = []ezflow.FlowSpec{{Flow: 1, RateBps: p.RateBps}, {Flow: 2, RateBps: p.RateBps},
					{Flow: 3, RateBps: p.RateBps}}
			default:
				panic("perfbench: unexpected campaign topology " + p.Topology)
			}
			out = append(out, rs)
		}
	}
	return out
}
