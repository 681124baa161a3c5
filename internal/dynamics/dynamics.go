// Package dynamics is the network-dynamics and fault-injection subsystem:
// an event-driven perturbation engine that schedules timed mutations into
// a running scenario. It turns the repository's frozen-at-t=0 topologies
// into living networks — links flap or fail for good, relays churn (halt
// and restart, draining or dropping their queues), channel quality
// degrades over a region, and traffic surges, steps, arrives and departs
// — which is exactly the regime where the paper's stability claim is
// interesting: EZ-Flow must re-converge after the perturbation without
// any message passing.
//
// Everything is driven by sim.Engine events scheduled when the script is
// attached, so a dynamics-enabled run remains a pure function of
// (scenario, seed): same script, same seed, byte-identical results on any
// worker count. Events that change connectivity can request route repair,
// a deterministic recomputation over the surviving links with the mesh's
// routing strategy (mesh.RerouteAll over mesh.LinkUsable).
//
// The package deliberately depends only on the mesh/phy/mac/traffic
// layers, never on the public ezflow package, so the root package can
// embed a Script in its Config without an import cycle.
package dynamics

import (
	"fmt"
	"sort"

	"ezflow/internal/mesh"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
	"ezflow/internal/traffic"
)

// Kind enumerates the perturbation types the engine can apply.
type Kind int

const (
	// LinkDown severs the link A<->B in both directions.
	LinkDown Kind = iota
	// LinkUp restores a severed link A<->B.
	LinkUp
	// LinkLoss sets the erasure probability of the directed link A->B to
	// Loss (channel-quality degradation of a single link).
	LinkLoss
	// NodeDown halts node Node's radio; Drop additionally discards its
	// queued packets (otherwise they drain after NodeUp).
	NodeDown
	// NodeUp restarts a halted node.
	NodeUp
	// RegionLoss sets erasure probability Loss on every link with an
	// endpoint within Radius metres of Center (an area-wide fade). The
	// previous per-link values are saved for RegionRestore.
	RegionLoss
	// RegionRestore restores every link loss overridden by RegionLoss
	// events so far.
	RegionRestore
	// FlowStart starts flow Flow's traffic source.
	FlowStart
	// FlowStop stops flow Flow's traffic source.
	FlowStop
	// FlowRate sets flow Flow's source rate to RateBps.
	FlowRate
)

// String returns the scenario-file spelling of the kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case LinkLoss:
		return "link-loss"
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	case RegionLoss:
		return "region-loss"
	case RegionRestore:
		return "region-restore"
	case FlowStart:
		return "flow-start"
	case FlowStop:
		return "flow-stop"
	case FlowRate:
		return "flow-rate"
	default:
		return "unknown"
	}
}

// Fault reports whether events of this kind perturb the network — the
// kinds whose first occurrence starts the stability clock that recovery
// metrics are measured against. Restorative events (LinkUp, NodeUp,
// RegionRestore) and traffic schedule events are not faults.
func (k Kind) Fault() bool {
	switch k {
	case LinkDown, NodeDown, RegionLoss, LinkLoss:
		return true
	}
	return false
}

// Event is one timed mutation. Only the fields its Kind names are read.
type Event struct {
	At   sim.Time
	Kind Kind

	A, B pkt.NodeID // link endpoints (LinkDown/LinkUp/LinkLoss)
	Node pkt.NodeID // churned node (NodeDown/NodeUp)
	Flow pkt.FlowID // traffic events

	RateBps float64      // FlowRate
	Loss    float64      // LinkLoss / RegionLoss probability
	Center  phy.Position // RegionLoss centre
	Radius  float64      // RegionLoss radius in metres

	// Drop makes NodeDown discard the node's queued packets instead of
	// letting them drain on restart.
	Drop bool
	// Reroute triggers deterministic BFS route repair for every flow
	// after the event is applied. Only the connectivity-changing kinds
	// (LinkDown, LinkUp, NodeDown, NodeUp) accept it; validation rejects
	// it elsewhere, because repair keys on up/down state, not loss.
	Reroute bool
}

// Script is an ordered timeline of events. The order of same-instant
// events in the slice is preserved (the engine schedules them in slice
// order, and sim.Engine breaks time ties by schedule sequence).
type Script struct {
	Events []Event
}

// Add appends an event and returns the script for chaining.
func (s *Script) Add(ev Event) *Script {
	s.Events = append(s.Events, ev)
	return s
}

// Flap returns the down/up event pair that severs the link a<->b during
// [downAt, upAt), repairing routes at both edges when reroute is set.
func Flap(a, b pkt.NodeID, downAt, upAt sim.Time, reroute bool) []Event {
	return []Event{
		{At: downAt, Kind: LinkDown, A: a, B: b, Reroute: reroute},
		{At: upAt, Kind: LinkUp, A: a, B: b, Reroute: reroute},
	}
}

// Churn returns the event pair that halts node n during [downAt, upAt).
func Churn(n pkt.NodeID, downAt, upAt sim.Time, drop, reroute bool) []Event {
	return []Event{
		{At: downAt, Kind: NodeDown, Node: n, Drop: drop, Reroute: reroute},
		{At: upAt, Kind: NodeUp, Node: n, Reroute: reroute},
	}
}

// MiddleLink returns the middle hop (a, b) of a flow's installed route —
// the canonical fault-injection point of the stability experiments. It
// panics if the flow has no route.
func MiddleLink(m *mesh.Mesh, flow pkt.FlowID) (a, b pkt.NodeID) {
	route := m.Route(flow)
	if len(route) < 2 {
		panic(fmt.Sprintf("dynamics: flow %v has no route", flow))
	}
	mid := len(route) / 2
	return route[mid-1], route[mid]
}

// MiddleRelay returns the relay at the midpoint of a flow's route.
func MiddleRelay(m *mesh.Mesh, flow pkt.FlowID) pkt.NodeID {
	route := m.Route(flow)
	if len(route) < 3 {
		panic(fmt.Sprintf("dynamics: flow %v has no relay to churn", flow))
	}
	return route[len(route)/2]
}

// Applied records one executed event for reports and tests.
type Applied struct {
	At   sim.Time
	Desc string
}

// Engine applies a script to a wired scenario and records the instants of
// fault events for the stability metrics. Failures land in the MAC and
// channel state themselves (MAC.SetDown, Channel.SetLinkDown), which is
// what route repair's mesh.LinkUsable reads.
type Engine struct {
	m       *mesh.Mesh
	sources map[pkt.FlowID]*traffic.Source

	savedLoss map[[2]pkt.NodeID]float64
	relaySeen map[pkt.NodeID]bool

	// FaultTimes lists when each fault-kind event fired, in order.
	FaultTimes []sim.Time
	// Log records every applied event in execution order.
	Log []Applied
	// OnReroute, when non-nil, runs after every route repair pass — the
	// hook the EZ-Flow deployment uses to attach controllers to queues
	// that repair created.
	OnReroute func()
}

// Attach validates the script against the mesh and schedules every event
// on the mesh's engine. It returns an error (and schedules nothing) if an
// event names an unknown node, link endpoint, or flow, or carries an
// out-of-range probability. Sources maps each flow id to its traffic
// source; traffic events for flows absent from it are rejected.
func Attach(m *mesh.Mesh, sources map[pkt.FlowID]*traffic.Source, script *Script) (*Engine, error) {
	e := &Engine{
		m:         m,
		sources:   sources,
		savedLoss: make(map[[2]pkt.NodeID]float64),
		relaySeen: make(map[pkt.NodeID]bool),
	}
	e.recordRelays()
	if err := e.Append(script); err != nil {
		return nil, err
	}
	return e, nil
}

// recordRelays folds the interior nodes of every current route into the
// set of relays ever seen. Called at attach time and after every route
// repair, so stability metrics cover relays a repair later routed
// around — the abandoned relay is exactly the one holding the fault
// backlog.
func (e *Engine) recordRelays() {
	for _, f := range e.m.Flows() {
		route := e.m.Route(f)
		for i := 1; i < len(route)-1; i++ {
			e.relaySeen[route[i]] = true
		}
	}
}

// RelaysSeen reports every node that relayed for some flow at any point
// of the run (initial routes plus every repaired variant).
func (e *Engine) RelaysSeen() map[pkt.NodeID]bool { return e.relaySeen }

// Append validates and schedules additional events on an attached engine
// (used when a campaign axis layers a fault on top of a scenario file's
// own timeline). Validation is all-or-nothing: on error no event of the
// batch is scheduled.
func (e *Engine) Append(script *Script) error {
	if script == nil {
		return nil
	}
	for i, ev := range script.Events {
		if err := e.validate(ev); err != nil {
			return fmt.Errorf("dynamics: event %d (%v at %v): %w", i, ev.Kind, ev.At, err)
		}
	}
	for _, ev := range script.Events {
		ev := ev
		e.m.Eng.ScheduleFuncAt(ev.At, func() { e.apply(ev) })
	}
	return nil
}

func (e *Engine) validate(ev Event) error {
	node := func(id pkt.NodeID) error {
		if e.m.Node(id) == nil {
			return fmt.Errorf("unknown node %v", id)
		}
		return nil
	}
	switch ev.Kind {
	case LinkDown, LinkUp, NodeDown, NodeUp:
	default:
		if ev.Reroute {
			return fmt.Errorf("reroute is only meaningful on link/node up/down events")
		}
	}
	switch ev.Kind {
	case LinkDown, LinkUp, LinkLoss:
		if err := node(ev.A); err != nil {
			return err
		}
		if err := node(ev.B); err != nil {
			return err
		}
		if ev.A == ev.B {
			return fmt.Errorf("link endpoints are the same node %v", ev.A)
		}
		if ev.Kind == LinkLoss && (ev.Loss < 0 || ev.Loss > 1) {
			return fmt.Errorf("loss probability %g out of [0,1]", ev.Loss)
		}
	case NodeDown, NodeUp:
		return node(ev.Node)
	case RegionLoss:
		if ev.Loss < 0 || ev.Loss > 1 {
			return fmt.Errorf("loss probability %g out of [0,1]", ev.Loss)
		}
		if ev.Radius <= 0 {
			return fmt.Errorf("non-positive region radius %g", ev.Radius)
		}
	case RegionRestore:
	case FlowStart, FlowStop, FlowRate:
		if e.sources[ev.Flow] == nil {
			return fmt.Errorf("unknown flow %v", ev.Flow)
		}
		if ev.Kind == FlowRate && ev.RateBps <= 0 {
			return fmt.Errorf("non-positive rate %g", ev.RateBps)
		}
	default:
		return fmt.Errorf("unknown event kind %d", int(ev.Kind))
	}
	return nil
}

// apply executes one event at its scheduled instant.
func (e *Engine) apply(ev Event) {
	now := e.m.Eng.Now()
	if ev.Kind.Fault() {
		e.FaultTimes = append(e.FaultTimes, now)
	}
	reroute := false
	switch ev.Kind {
	case LinkDown:
		e.setLink(ev.A, ev.B, true)
		reroute = ev.Reroute
	case LinkUp:
		e.setLink(ev.A, ev.B, false)
		reroute = ev.Reroute
	case LinkLoss:
		// A direct set, deliberately outside the region save/restore
		// machinery: a standing link degradation survives RegionRestore,
		// and is undone by another LinkLoss event with the old value. If
		// a region fade currently covers the link, the saved value is
		// updated too, so the later restore lands on this degradation
		// rather than resurrecting the pre-fade state.
		k := [2]pkt.NodeID{ev.A, ev.B}
		if _, covered := e.savedLoss[k]; covered {
			e.savedLoss[k] = ev.Loss
		}
		e.m.Ch.SetLinkLoss(ev.A, ev.B, ev.Loss)
	case NodeDown:
		n := e.m.Node(ev.Node)
		n.MAC.SetDown(true)
		if ev.Drop {
			n.MAC.FlushQueues()
		}
		reroute = ev.Reroute
	case NodeUp:
		e.m.Node(ev.Node).MAC.SetDown(false)
		reroute = ev.Reroute
	case RegionLoss:
		e.applyRegion(ev)
	case RegionRestore:
		e.restoreRegion()
	case FlowStart:
		e.sources[ev.Flow].Start()
	case FlowStop:
		e.sources[ev.Flow].Stop()
	case FlowRate:
		e.sources[ev.Flow].SetRate(ev.RateBps)
	}
	e.Log = append(e.Log, Applied{At: now, Desc: e.describe(ev)})
	if reroute {
		e.RerouteAll()
	}
}

func (e *Engine) describe(ev Event) string {
	switch ev.Kind {
	case LinkDown, LinkUp:
		return fmt.Sprintf("%v %v<->%v", ev.Kind, ev.A, ev.B)
	case LinkLoss:
		return fmt.Sprintf("%v %v->%v p=%g", ev.Kind, ev.A, ev.B, ev.Loss)
	case NodeDown:
		if ev.Drop {
			return fmt.Sprintf("%v %v (drop queues)", ev.Kind, ev.Node)
		}
		return fmt.Sprintf("%v %v", ev.Kind, ev.Node)
	case NodeUp:
		return fmt.Sprintf("%v %v", ev.Kind, ev.Node)
	case RegionLoss:
		return fmt.Sprintf("%v (%.0f,%.0f) r=%.0f p=%g", ev.Kind, ev.Center.X, ev.Center.Y, ev.Radius, ev.Loss)
	case RegionRestore:
		return ev.Kind.String()
	case FlowRate:
		return fmt.Sprintf("%v %v %g bit/s", ev.Kind, ev.Flow, ev.RateBps)
	default:
		return fmt.Sprintf("%v %v", ev.Kind, ev.Flow)
	}
}

// setLink severs or restores both directions of a link.
func (e *Engine) setLink(a, b pkt.NodeID, down bool) {
	e.m.Ch.SetLinkDown(a, b, down)
	e.m.Ch.SetLinkDown(b, a, down)
}

// saveLoss records a link's pre-override erasure probability once, so
// RegionRestore can put the calibrated value back.
func (e *Engine) saveLoss(a, b pkt.NodeID) {
	k := [2]pkt.NodeID{a, b}
	if _, ok := e.savedLoss[k]; !ok {
		e.savedLoss[k] = e.m.Ch.LinkLoss(a, b)
	}
}

// applyRegion degrades every directed link with an endpoint inside the
// region, iterating node pairs in ascending id order for determinism.
func (e *Engine) applyRegion(ev Event) {
	ids := e.m.Ch.NodeIDs()
	in := make(map[pkt.NodeID]bool, len(ids))
	for _, id := range ids {
		in[id] = e.m.Ch.Position(id).Dist(ev.Center) <= ev.Radius
	}
	for _, a := range ids {
		for _, b := range ids {
			if a == b || (!in[a] && !in[b]) {
				continue
			}
			e.saveLoss(a, b)
			e.m.Ch.SetLinkLoss(a, b, ev.Loss)
		}
	}
}

// restoreRegion restores every loss value overridden so far.
func (e *Engine) restoreRegion() {
	keys := make([][2]pkt.NodeID, 0, len(e.savedLoss))
	for k := range e.savedLoss {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		e.m.Ch.SetLinkLoss(k[0], k[1], e.savedLoss[k])
	}
	e.savedLoss = make(map[[2]pkt.NodeID]float64)
}

// RerouteAll repairs every flow's route against the current connectivity
// (one mesh.RerouteAll round over mesh.LinkUsable), then fires OnReroute.
// Flows with no surviving path keep their broken route until
// connectivity returns.
func (e *Engine) RerouteAll() {
	e.m.RerouteAll()
	e.recordRelays()
	if e.OnReroute != nil {
		e.OnReroute()
	}
}
