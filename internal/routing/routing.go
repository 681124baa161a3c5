// Package routing is the route-computation subsystem of the repository:
// pluggable path-selection strategies behind a name registry that exactly
// mirrors internal/ctl's congestion-controller registry. The paper factors
// routing dynamics out of its study with a static NOAH-style agent, and
// until PR 7 that agent was hardcoded breadth-first search inside
// internal/mesh; the PR 6 diagnosis of the DiskScaling collapse (route
// *quality*, not MAC loss, starves long random-disk paths) made route
// selection an experiment axis of its own.
//
// Three strategies are registered:
//
//   - "bfs" — the legacy minimum-hop breadth-first search, byte-identical
//     to the pre-registry behaviour (it is the default everywhere).
//   - "etx" — minimum expected-transmission-count (De Couto's ETX) over
//     the calibrated per-link loss probabilities, switching to measured
//     per-link MAC counters (dequeues and retries, the PR 6 observability
//     inputs) once a link has carried enough traffic.
//   - "kshortest" — deterministic Yen k-shortest multipath with per-flow
//     tie-broken selection, so concurrent flows spread over link-disjoint
//     alternatives instead of piling onto one geodesic.
//
// Strategies compute over a Graph — a read-only view of the mesh carrying
// node ids, a usable-link predicate, calibrated losses and live per-link
// counters — and never mutate the mesh themselves; internal/mesh installs
// whatever path a strategy returns. Every strategy is deterministic: the
// same graph, flow and endpoints always yield the identical path, on any
// worker count and under the race detector, because all iteration is in
// ascending node-id order and every tie has a documented break rule.
package routing

import (
	"strings"

	"ezflow/internal/pkt"
	"ezflow/internal/registry"
)

// Graph is the read-only topology view a Strategy computes over. The mesh
// layer assembles it; strategies never see the mesh itself, so they cannot
// perturb simulation state.
type Graph struct {
	// IDs holds every node id in ascending order. Strategies iterate this
	// slice (never a map) so their visit order is deterministic.
	IDs []pkt.NodeID
	// Usable reports whether the directed link a->b can carry traffic
	// right now: both endpoints up, the link not severed, b within a's
	// transmission range. During route repair this is the mesh's
	// LinkUsable; at build time it is plain transmission range.
	Usable func(a, b pkt.NodeID) bool
	// LinkLoss reports the calibrated erasure probability of the directed
	// link a->b (0 when none is configured) — the a-priori input of
	// link-quality metrics.
	LinkLoss func(a, b pkt.NodeID) float64
	// Measured reports the live per-link MAC counters for traffic a sent
	// toward b: packets that left a's queues to b (acked head-of-line
	// departures) and retransmission attempts. ok is false when a has no
	// queue toward b. Nil when the caller has no MAC state (pure
	// topology-level computations).
	Measured func(a, b pkt.NodeID) (acked, retries uint64, ok bool)
	// Neighbors appends to buf the candidate successors of a and returns
	// the extended slice: an ascending-id superset of every b with
	// Usable(a, b). Strategies test only these candidates, so a search
	// costs O(N·degree) rather than O(N²) predicate calls; because the
	// list is ascending and holds every usable successor, it visits the
	// usable links in exactly the order the all-pairs scan would, and the
	// paths are identical. Nil makes every id in IDs a candidate (that
	// all-pairs scan).
	Neighbors func(a pkt.NodeID, buf []pkt.NodeID) []pkt.NodeID
}

// neighbors appends a's candidate successors to buf: Neighbors when set,
// every id otherwise.
func (g *Graph) neighbors(a pkt.NodeID, buf []pkt.NodeID) []pkt.NodeID {
	if g.Neighbors == nil {
		return append(buf, g.IDs...)
	}
	return g.Neighbors(a, buf)
}

// unreached is the parent of a slot no search has reached.
const unreached = -1

// parents returns a dense predecessor array over g.IDs (slot i stands
// for g.IDs[i]) with every slot unreached.
func (g *Graph) parents() []int32 {
	parent := make([]int32, len(g.IDs))
	for i := range parent {
		parent[i] = unreached
	}
	return parent
}

// slot returns the position of id in g.IDs.
func (g *Graph) slot(id pkt.NodeID) (int, bool) { return pkt.SlotOf(g.IDs, id) }

// path unwinds the parent chain from slot dst back to the search root
// into a fresh src..dst id path.
func (g *Graph) path(parent []int32, dst int) []pkt.NodeID {
	hops := 0
	for v := dst; parent[v] != int32(v); v = int(parent[v]) {
		hops++
	}
	p := make([]pkt.NodeID, hops+1)
	for v := dst; ; v = int(parent[v]) {
		p[hops] = g.IDs[v]
		if parent[v] == int32(v) {
			return p
		}
		hops--
	}
}

// Strategy computes one flow's path over a graph view.
type Strategy interface {
	// Name returns the registry name the strategy was created under.
	Name() string
	// Route computes a loop-free path src..dst over the graph's usable
	// links. It reports ok=false when no path exists; the caller decides
	// what a failed (re)computation means. Implementations must be
	// deterministic and must not mutate the graph.
	Route(g *Graph, flow pkt.FlowID, src, dst pkt.NodeID) ([]pkt.NodeID, bool)
}

// Options carries every strategy family's tunables, mirroring
// ctl.Options: zero values select the documented defaults (FillDefaults),
// and a scenario passes one Options to whichever strategy it selects, so
// sweeping strategies never changes anything but the strategy.
type Options struct {
	// K is the number of alternative paths the kshortest strategy ranks
	// (default 4).
	K int
	// MinAcked is the per-link sample floor below which the etx strategy
	// ignores measured MAC counters and falls back to the calibrated loss
	// (default 8 acked packets — a handful of lucky deliveries must not
	// outvote the calibration).
	MinAcked uint64
}

// DefaultOptions returns every strategy family's defaults.
func DefaultOptions() Options {
	var o Options
	FillDefaults(&o)
	return o
}

// FillDefaults replaces zero values with each family's defaults, leaving
// caller-set fields alone.
func FillDefaults(o *Options) {
	if o.K <= 0 {
		o.K = 4
	}
	if o.MinAcked == 0 {
		o.MinAcked = 8
	}
}

// Info describes one registered routing strategy.
type Info struct {
	// Name is the registry key ("bfs", "etx", "kshortest").
	Name string
	// Summary is the one-line description CLI usage strings embed.
	Summary string
	// New creates a strategy instance. Implementations fill their own
	// Options defaults, so callers may pass a zero Options.
	New func(opts Options) Strategy
}

// Registry holds every registered strategy, keyed by name.
var Registry = registry.New("routing strategy", func(i Info) bool { return i.New != nil })

// Register adds a strategy to the Registry. It panics on an empty name,
// a duplicate, or a nil constructor — registration bugs must fail at
// init.
func Register(info Info) { Registry.Register(info.Name, info.Summary, info) }

// IsDefault reports whether name selects the default minimum-hop BFS
// behaviour — the empty string or "bfs". The default keeps every
// builder-installed route exactly as constructed (byte-identical to the
// pre-registry simulator); any other strategy recomputes installed routes
// at wiring time. Every CLI flag, sweep axis and scenario field shares
// this predicate so the spellings can never drift apart.
func IsDefault(name string) bool {
	switch strings.ToLower(name) {
	case "", DefaultName:
		return true
	}
	return false
}

// DefaultName is the registry name of the default strategy.
const DefaultName = "bfs"

// Default returns a default-configured instance of the default strategy
// (minimum-hop BFS) — what a mesh routes with when nothing was selected.
func Default() Strategy {
	info, ok := Registry.Lookup(DefaultName)
	if !ok {
		panic("routing: default strategy " + DefaultName + " is not registered")
	}
	return info.New(DefaultOptions())
}
