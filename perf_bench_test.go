// Hot-path benchmarks guarding the simulator core: BenchmarkChainRun is
// the end-to-end allocation budget for a full scenario run (engine + PHY +
// MAC + mesh + traffic + metering), BenchmarkChainRun80211 isolates the
// controller-free path. internal/sim has the matching micro-benchmark
// (BenchmarkEngine) for the event queue alone. Run with
//
//	go test -bench=ChainRun -benchmem -run=^$ .
//
// and compare B/op and allocs/op against the recorded numbers in
// BENCH_PR2.json before touching the packet or event path.
package ezflow_test

import (
	"fmt"
	"testing"

	"ezflow"
	"ezflow/internal/dynamics"
	"ezflow/internal/routing"
)

// chainRun executes one short 4-hop chain scenario in the given mode; the
// 20-simulated-second horizon is long enough for steady-state forwarding
// to dominate setup allocations.
func chainRun(seed int64, mode ezflow.Mode) *ezflow.Result {
	cfg := ezflow.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = 20 * ezflow.Second
	cfg.Mode = mode
	sc := ezflow.NewChain(4, cfg,
		ezflow.FlowSpec{Flow: 1, RateBps: 2e6, Stop: cfg.Duration})
	return sc.Run()
}

// BenchmarkChainRun measures a 4-hop EZ-Flow chain run end to end. Its
// allocs/op is the headline number the pooled packet/event path is
// budgeted against.
func BenchmarkChainRun(b *testing.B) {
	b.ReportAllocs()
	var last *ezflow.Result
	for i := 0; i < b.N; i++ {
		last = chainRun(int64(i+1), ezflow.ModeEZFlow)
	}
	b.ReportMetric(last.Flows[1].MeanThroughputKbps, "kbps")
}

// BenchmarkChainRun80211 is the same run without any controller, isolating
// the raw forwarding path.
func BenchmarkChainRun80211(b *testing.B) {
	b.ReportAllocs()
	var last *ezflow.Result
	for i := 0; i < b.N; i++ {
		last = chainRun(int64(i+1), ezflow.Mode80211)
	}
	b.ReportMetric(last.Flows[1].MeanThroughputKbps, "kbps")
}

// largeTopoDuration is the simulated horizon of the large-topology
// benchmarks: long enough that steady-state forwarding dominates the
// topology build, short enough to iterate.
const largeTopoDuration = 5 * ezflow.Second

// gridRun executes one w×h lattice scenario with its default
// gateway-bound flows. The seed is fixed so every iteration performs
// identical work.
func gridRun(w, h int) *ezflow.Result {
	cfg := ezflow.DefaultConfig()
	cfg.Seed = 1
	cfg.Duration = largeTopoDuration
	cfg.Bin = ezflow.Second // bins must fit the short horizon
	cfg.Mode = ezflow.ModeEZFlow
	return ezflow.NewGrid(w, h, cfg).Run()
}

// diskRun executes one n-node random-disk scenario at the default
// (constant-density) radius with its default gateway-bound flow.
func diskRun(n int) *ezflow.Result {
	cfg := ezflow.DefaultConfig()
	cfg.Seed = 1
	cfg.Duration = largeTopoDuration
	cfg.Bin = ezflow.Second // bins must fit the short horizon
	cfg.Mode = ezflow.ModeEZFlow
	return ezflow.NewRandom(n, 0, cfg).Run()
}

// BenchmarkGrid100Run measures a 100-node (10×10) lattice run — the
// large-scenario axis the PHY neighbor index exists for. Most of the 100
// stations only carrier-sense the two routed flows, so per-transmission
// cost is dominated by how many nodes each broadcast event touches.
func BenchmarkGrid100Run(b *testing.B) {
	b.ReportAllocs()
	var last *ezflow.Result
	for i := 0; i < b.N; i++ {
		last = gridRun(10, 10)
	}
	b.ReportMetric(last.AggKbps, "kbps")
}

// BenchmarkRandomDisk200Run measures a 200-node random-disk run: the
// headline large-topology number (ISSUE 4 demands ≥10× over the O(N)
// per-transmission implementation).
func BenchmarkRandomDisk200Run(b *testing.B) {
	b.ReportAllocs()
	var last *ezflow.Result
	for i := 0; i < b.N; i++ {
		last = diskRun(200)
	}
	b.ReportMetric(last.AggKbps, "kbps")
}

// BenchmarkDiskScaling sweeps the node count at constant spatial density.
// With the neighbor-indexed PHY the per-event cost is O(degree), so ns/op
// should grow roughly linearly with n (event count) rather than
// quadratically (event count × per-event node walk).
func BenchmarkDiskScaling(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var last *ezflow.Result
			for i := 0; i < b.N; i++ {
				last = diskRun(n)
			}
			b.ReportMetric(last.AggKbps, "kbps")
		})
	}
}

// routingStrategy materialises a default-configured registry strategy for
// the route-computation microbenchmarks.
func routingStrategy(b *testing.B, name string) routing.Strategy {
	b.Helper()
	info, ok := routing.Registry.Lookup(name)
	if !ok {
		b.Fatalf("strategy %q not registered", name)
	}
	return info.New(routing.DefaultOptions())
}

// benchRouteBuild measures one strategy's pure route-computation cost on
// a 200-node lossy random disk: the graph is assembled once, then each
// iteration recomputes the rim flow's path — the work a dynamics-driven
// repair performs mid-run.
func benchRouteBuild(b *testing.B, name string) {
	cfg := ezflow.DefaultConfig()
	cfg.Seed = 1
	sc := ezflow.NewRandomLossy(200, 0, 0.5, cfg)
	g := sc.Mesh.RoutingGraph()
	route := sc.Mesh.Route(1)
	src, dst := route[0], route[len(route)-1]
	s := routingStrategy(b, name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Route(g, 1, src, dst); !ok {
			b.Fatal("no route on a connected disk")
		}
	}
}

// BenchmarkRoutingBFS is the repair-cost baseline: the legacy minimum-hop
// search on a 200-node disk, walking the PHY index's decode-range lists
// (O(N·degree) link tests) with dense per-route search state.
func BenchmarkRoutingBFS(b *testing.B) { benchRouteBuild(b, "bfs") }

// BenchmarkRoutingETX measures the Dijkstra of the link-quality strategy
// on the same graph: O(N·degree) link tests and costs, plus a linear
// minimum scan per settled node.
func BenchmarkRoutingETX(b *testing.B) { benchRouteBuild(b, "etx") }

// BenchmarkRoutingKShortest measures Yen's k-shortest ranking (K=4, each
// spur an inner BFS) on the same graph — the most expensive strategy.
func BenchmarkRoutingKShortest(b *testing.B) { benchRouteBuild(b, "kshortest") }

// BenchmarkRerouteAll measures one dynamics repair round — every flow
// rerouted over one routing graph, relays recorded, the controller
// re-extended — on a 200-node disk carrying 17 flows (the rim flow plus
// 16 gateway clients), the work mobility and scripted faults trigger
// mid-run.
func BenchmarkRerouteAll(b *testing.B) {
	cfg := ezflow.DefaultConfig()
	cfg.Seed = 1
	cfg.Mode = ezflow.ModeEZFlow
	cfg.Workload = &ezflow.WorkloadSpec{Clients: 16, OnMeanSec: 5, OffMeanSec: 5}
	sc := ezflow.NewRandom(200, 0, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e5})
	if err := sc.AddDynamics(&dynamics.Script{}); err != nil {
		b.Fatal(err)
	}
	if n := len(sc.Mesh.Flows()); n != 17 {
		b.Fatalf("%d flows, want 17", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Dyn.RerouteAll()
	}
}

// lossyDiskRun is diskRun over the edge-of-range loss model with the
// given routing strategy — the workload of the `ezbench -exp routing`
// cross product.
func lossyDiskRun(n int, strategy string) *ezflow.Result {
	cfg := ezflow.DefaultConfig()
	cfg.Seed = 1
	cfg.Duration = largeTopoDuration
	cfg.Bin = ezflow.Second
	cfg.Mode = ezflow.ModeEZFlow
	cfg.Routing = strategy
	return ezflow.NewRandomLossy(n, 0, 0.5, cfg).Run()
}

// BenchmarkDiskScalingRouting reruns the 200-node disk per routing
// strategy on lossy links: end-to-end cost of strategy selection
// (wiring-time recomputation included) plus the throughput each strategy
// extracts, reported as the kbps metric.
func BenchmarkDiskScalingRouting(b *testing.B) {
	for _, s := range []string{"bfs", "etx", "kshortest"} {
		b.Run(s, func(b *testing.B) {
			b.ReportAllocs()
			var last *ezflow.Result
			for i := 0; i < b.N; i++ {
				last = lossyDiskRun(200, s)
			}
			b.ReportMetric(last.AggKbps, "kbps")
		})
	}
}
