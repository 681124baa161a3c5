package scenario

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"ezflow"
)

// MaxNodes bounds a topology's node count: ten times the largest
// in-repo deployment (the 400-node disks). Specs arrive from the CLIs
// and from ezserve's HTTP submissions, and the bound turns a hostile
// size into a validation error instead of an unbounded build.
const MaxNodes = 4096

// topologyKind is one network builder: its constructor, its node count,
// and the flows it runs when a spec declares none.
type topologyKind struct {
	build func(t Topology, cfg ezflow.Config, flows []ezflow.FlowSpec) *ezflow.Scenario
	// nodes counts the stations, saturating just above MaxNodes.
	nodes func(t Topology) int
	// flows is the number of default flows, ids 1..flows; 0 leaves the
	// builder to choose its own (the tree's per-leaf flows).
	flows func(t Topology) int
}

// fixed returns a constant count function.
func fixed(n int) func(Topology) int { return func(Topology) int { return n } }

// fixedKind is a paper topology of fixed shape.
func fixedKind(nodes, flows int, build func(ezflow.Config, ...ezflow.FlowSpec) *ezflow.Scenario) topologyKind {
	return topologyKind{
		build: func(_ Topology, cfg ezflow.Config, f []ezflow.FlowSpec) *ezflow.Scenario { return build(cfg, f...) },
		nodes: fixed(nodes), flows: fixed(flows),
	}
}

// topologies maps each topology kind to its builder. It is the only
// place a kind name meets its constructor.
var topologies = map[string]topologyKind{
	"chain": {
		build: func(t Topology, cfg ezflow.Config, f []ezflow.FlowSpec) *ezflow.Scenario {
			return ezflow.NewChain(t.Hops, cfg, f...)
		},
		nodes: func(t Topology) int { return min(t.Hops, MaxNodes) + 1 },
		flows: fixed(1),
	},
	"testbed":   fixedKind(9, 2, ezflow.NewTestbed),
	"scenario1": fixedKind(13, 2, ezflow.NewScenario1),
	"scenario2": fixedKind(24, 3, ezflow.NewScenario2),
	"tree": {
		build: func(t Topology, cfg ezflow.Config, f []ezflow.FlowSpec) *ezflow.Scenario {
			return ezflow.NewTree(t.Branching, t.Depth, cfg, f...)
		},
		nodes: func(t Topology) int {
			total, level := 1, 1
			for i := 0; i < t.Depth && total <= MaxNodes; i++ {
				level *= min(t.Branching, MaxNodes+1)
				total += level
			}
			return min(total, MaxNodes+1)
		},
		flows: fixed(0),
	},
	"grid": {
		build: func(t Topology, cfg ezflow.Config, f []ezflow.FlowSpec) *ezflow.Scenario {
			return ezflow.NewGrid(t.Width, t.Height, cfg, f...)
		},
		nodes: func(t Topology) int { return min(t.Width, MaxNodes+1) * min(t.Height, MaxNodes+1) },
		// Flow 2 runs along the bottom row, so only true 2-D grids have it.
		flows: func(t Topology) int {
			if t.Width > 1 && t.Height > 1 {
				return 2
			}
			return 1
		},
	},
	"random": {
		build: func(t Topology, cfg ezflow.Config, f []ezflow.FlowSpec) *ezflow.Scenario {
			return ezflow.NewRandomLossy(t.Nodes, t.Radius, t.EdgeLoss, cfg, f...)
		},
		nodes: func(t Topology) int { return t.Nodes },
		flows: fixed(1),
	},
}

// topologyNames renders the kinds as "a|b|c" for help text.
func topologyNames() string { return strings.Join(slices.Sorted(maps.Keys(topologies)), "|") }

// resolved fills the documented size defaults.
func (t Topology) resolved() Topology {
	for _, f := range []struct {
		v   *int
		def int
	}{{&t.Hops, 4}, {&t.Branching, 3}, {&t.Depth, 2}, {&t.Width, 4}, {&t.Height, 4}, {&t.Nodes, 12}} {
		if *f.v <= 0 {
			*f.v = f.def
		}
	}
	return t
}

// defaultFlows lists the flows the topology runs when a spec declares
// none, at the default rate; nil leaves the choice to the builder.
func (t Topology) defaultFlows() []Flow {
	var out []Flow
	for id := 1; id <= topologies[t.Kind].flows(t.resolved()); id++ {
		out = append(out, Flow{ID: id})
	}
	return out
}

// Validate checks the topology's kind, its loss model and its size.
func (t Topology) Validate() error {
	kind, ok := topologies[t.Kind]
	if !ok {
		return fmt.Errorf("scenario: unknown topology kind %q (want %s)", t.Kind, topologyNames())
	}
	if t.EdgeLoss != 0 {
		if t.Kind != "random" {
			return fmt.Errorf("scenario: edge_loss only applies to the random topology (kind %q)", t.Kind)
		}
		if t.EdgeLoss < 0 || t.EdgeLoss >= 1 {
			return fmt.Errorf("scenario: edge_loss %g out of [0,1)", t.EdgeLoss)
		}
	}
	if n := kind.nodes(t.resolved()); n < 2 || n > MaxNodes {
		return fmt.Errorf("scenario: %s topology has %d nodes (want 2..%d)", t.Kind, n, MaxNodes)
	}
	return nil
}
