// Generated topologies beyond the paper's own networks: regular grids and
// seeded random-disk deployments. Both builders validate connectivity —
// every installed route hop must be within transmission range — so a bad
// parameter choice fails loudly at build time instead of silently
// delivering nothing.
package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/routing"
	"ezflow/internal/sim"
)

// Grid builds a w×h lattice at DefaultHopDist spacing with the gateway N0
// at the origin; node (x, y) has id y*w + x. Two gateway-bound flows are
// installed: flow 1 from the far corner (w-1, h-1), walking its row down
// to column 0 and then down the column to the gateway, and — when the
// grid is two-dimensional — flow 2 from corner (w-1, 0) straight along
// the bottom row. The two paths share only the gateway, so they contend
// by radio proximity rather than by queue merging (the complement of the
// paper's Scenario 1).
func Grid(eng *sim.Engine, w, h int, phyCfg phy.Config, macCfg mac.Config) *Mesh {
	if w < 1 || h < 1 || w*h < 2 {
		panic(fmt.Sprintf("mesh: grid %dx%d needs at least 2 nodes", w, h))
	}
	m := New(eng, phyCfg, macCfg)
	d := float64(DefaultHopDist)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			m.AddNode(pkt.NodeID(y*w+x), phy.Position{X: float64(x) * d, Y: float64(y) * d})
		}
	}

	// Flow 1: far corner -> along its row to column 0 -> down to N0.
	var p1 []pkt.NodeID
	for x := w - 1; x >= 0; x-- {
		p1 = append(p1, pkt.NodeID((h-1)*w+x))
	}
	for y := h - 2; y >= 0; y-- {
		p1 = append(p1, pkt.NodeID(y*w))
	}
	m.SetRoute(1, p1)

	// Flow 2: bottom-right corner -> along the bottom row to N0. Only in
	// true 2-D grids; in a 1×n or n×1 grid it would duplicate flow 1.
	if w > 1 && h > 1 {
		var p2 []pkt.NodeID
		for x := w - 1; x >= 0; x-- {
			p2 = append(p2, pkt.NodeID(x))
		}
		m.SetRoute(2, p2)
	}
	m.ValidateRoutes()
	return m
}

// DefaultDiskRadius returns the disk radius RandomDisk uses when the
// caller passes radius <= 0: (DefaultHopDist/2)·√n keeps the expected
// node density — and with it the interference regime — constant as n
// grows, and dense enough that a uniform placement is connected at the
// default 250 m transmission range with overwhelming probability.
func DefaultDiskRadius(n int) float64 {
	return DefaultHopDist / 2 * math.Sqrt(float64(n))
}

// randomDiskAttempts bounds the resampling loop before RandomDisk gives
// up on finding a connected placement.
const randomDiskAttempts = 256

// RandomDisk builds an n-node deployment with the gateway N0 at the
// centre of a disk of the given radius (DefaultDiskRadius(n) if <= 0) and
// nodes N1..N(n-1) placed uniformly at random from the given seed. The
// placement is resampled until the transmission-range graph is connected
// (panicking after a bounded number of attempts, which signals that the
// radius is too large for n nodes to bridge). One flow is installed: flow
// 1 from the node farthest from the gateway, routed along a BFS
// shortest-hop path with deterministic (lowest-id) tie-breaking, so a
// fixed (n, radius, seed) triple always produces the identical mesh.
//
// The seed only shapes the topology; it is deliberately drawn from its
// own generator so placement never perturbs the engine's event RNG.
func RandomDisk(eng *sim.Engine, n int, radius float64, seed int64, phyCfg phy.Config, macCfg mac.Config) *Mesh {
	return RandomDiskLossy(eng, n, radius, seed, 0, phyCfg, macCfg)
}

// RandomDiskLossy builds the same deployment as RandomDisk and
// additionally calibrates an edge-of-range loss model over every link
// (ApplyEdgeLoss with the given maximum probability): links near the
// transmission-range limit erase with probability ramping up to edgeLoss,
// the heterogeneous link quality a real deployment measures. edgeLoss 0
// is exactly RandomDisk. The installed route is still the minimum-hop
// gateway path — a link-quality routing strategy (Config.Routing "etx")
// recomputes it against the calibrated losses at wiring.
func RandomDiskLossy(eng *sim.Engine, n int, radius float64, seed int64, edgeLoss float64, phyCfg phy.Config, macCfg mac.Config) *Mesh {
	if n < 2 {
		panic("mesh: random disk needs at least 2 nodes")
	}
	if radius <= 0 {
		radius = DefaultDiskRadius(n)
	}
	rng := rand.New(rand.NewSource(seed))
	var pos []phy.Position
	var far int
	var parent []int
	found := false
	for try := 0; try < randomDiskAttempts; try++ {
		pos = samplePositions(rng, n, radius)
		parent = routing.GatewayTree(pos, phyCfg.TxRange)
		if routing.Connected(parent) {
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("mesh: no connected %d-node placement within radius %.0f m after %d attempts (radius too large for the %g m range?)",
			n, radius, randomDiskAttempts, phyCfg.TxRange))
	}

	m := New(eng, phyCfg, macCfg)
	for i, p := range pos {
		m.AddNode(pkt.NodeID(i), p)
	}
	if edgeLoss > 0 {
		m.ApplyEdgeLoss(edgeLoss)
	}

	// Flow 1: farthest node (lowest id on ties) back to the gateway along
	// the BFS tree.
	far = 0
	for i := 1; i < n; i++ {
		di, df := pos[i].Dist(pos[0]), pos[far].Dist(pos[0])
		if di > df {
			far = i
		}
	}
	var path []pkt.NodeID
	for i := far; ; i = parent[i] {
		path = append(path, pkt.NodeID(i))
		if i == 0 {
			break
		}
	}
	m.SetRoute(1, path)
	m.ValidateRoutes()
	return m
}

// samplePositions draws the gateway at the origin plus n-1 points uniform
// over the disk (r = R·√u gives an area-uniform radius).
func samplePositions(rng *rand.Rand, n int, radius float64) []phy.Position {
	pos := make([]phy.Position, n)
	for i := 1; i < n; i++ {
		r := radius * math.Sqrt(rng.Float64())
		theta := 2 * math.Pi * rng.Float64()
		pos[i] = phy.Position{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
	}
	return pos
}

// ApplyEdgeLoss calibrates a deterministic edge-of-range loss model over
// every in-range directed link: a link of length d erases with
// probability maxLoss·((d-R/2)/(R/2))² for d beyond half the transmission
// range R, and 0 below it. Short links stay clean, marginal links near
// the range limit approach maxLoss — the SNR-driven quality gradient real
// deployments measure (the paper's Table 1 testbed losses range 0–43%).
// Links are visited in ascending (sender, receiver) id order, walking
// each station's decode-range neighbors from the PHY index, so the
// resulting loss table is a pure function of the placement.
func (m *Mesh) ApplyEdgeLoss(maxLoss float64) {
	if maxLoss <= 0 {
		return
	}
	r := m.Ch.Config().TxRange
	half := r / 2
	var nbrs []pkt.NodeID
	for _, n := range m.Nodes() {
		a := n.ID
		pa := m.Ch.Position(a)
		nbrs = m.Ch.DecodeNeighbors(a, nbrs[:0])
		for _, b := range nbrs {
			if d := pa.Dist(m.Ch.Position(b)); d > half {
				frac := (d - half) / half
				m.Ch.SetLinkLoss(a, b, maxLoss*frac*frac)
			}
		}
	}
}

// CheckRoutes reports the first installed route with a hop outside the
// channel's transmission range, or nil when every route is valid. It is
// the non-panicking half of the route-validity contract: builders assert
// with ValidateRoutes (a bad construction is a programming error), while
// callers probing a mesh mid-run — after repairs kept a broken route in
// place, say — get an error they can handle.
func (m *Mesh) CheckRoutes() error {
	flows := make([]pkt.FlowID, 0, len(m.routes))
	for f := range m.routes {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	for _, f := range flows {
		route := m.routes[f]
		for i := 0; i < len(route)-1; i++ {
			if !m.Ch.InTxRange(route[i], route[i+1]) {
				return fmt.Errorf("mesh: flow %v hop %v->%v exceeds transmission range", f, route[i], route[i+1])
			}
		}
	}
	return nil
}

// ValidateRoutes asserts CheckRoutes, panicking with the offending link.
// Topology builders call it after SetRoute so a disconnected layout fails
// at construction time.
func (m *Mesh) ValidateRoutes() {
	if err := m.CheckRoutes(); err != nil {
		panic(err.Error())
	}
}
