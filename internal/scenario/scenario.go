// Package scenario loads declarative experiment descriptions from JSON:
// a topology, a set of flows, the control mode under test, and a dynamics
// timeline of timed perturbations. It is the bridge between "as many
// scenarios as you can imagine" and the Go constructors — `ezsim
// -scenario file.json` and campaign specs describe perturbed experiments
// without writing code.
//
// A minimal spec:
//
//	{
//	  "name": "chain4-linkfailure",
//	  "topology": {"kind": "chain", "hops": 4},
//	  "mode": "ezflow",
//	  "duration_sec": 600,
//	  "flows": [{"id": 1, "rate_bps": 2e6}],
//	  "dynamics": [
//	    {"at_sec": 200, "kind": "link-down", "a": 1, "b": 2},
//	    {"at_sec": 230, "kind": "link-up", "a": 1, "b": 2}
//	  ]
//	}
//
// Build wires the spec into a runnable ezflow.Scenario. Runs are
// deterministic: the same spec and seed produce byte-identical results.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"ezflow"
	"ezflow/internal/ctl"
	"ezflow/internal/dynamics"
	"ezflow/internal/mobility"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/routing"
	"ezflow/internal/sim"
)

// Spec is a complete declarative scenario.
type Spec struct {
	// Name labels reports; optional.
	Name string `json:"name,omitempty"`
	// Topology selects and parameterises the network.
	Topology Topology `json:"topology"`
	// Mode is the control mechanism: 802.11 | ezflow | penalty | diffq
	// (default 802.11).
	Mode string `json:"mode,omitempty"`
	// Controller selects a congestion controller from the internal/ctl
	// registry by name (ezflow | backpressure | feedback | staticcap |
	// penalty | diffq — see ctl.Registry). It is mutually exclusive with
	// Mode: a spec sets one or the other, so a file can never claim two
	// control planes at once.
	Controller string `json:"controller,omitempty"`
	// Routing selects a routing strategy from the internal/routing
	// registry by name (bfs | etx | kshortest — see routing.Registry).
	// Empty or "bfs" keeps the default minimum-hop routes exactly as the
	// topology builder installed them; any other strategy recomputes every
	// route at wiring (see ezflow.Config.Routing).
	Routing string `json:"routing,omitempty"`
	// Seed is the run's random seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DurationSec is the simulated horizon in seconds (default 600).
	DurationSec float64 `json:"duration_sec,omitempty"`
	// WarmupSec excludes an initial interval from summary statistics.
	WarmupSec float64 `json:"warmup_sec,omitempty"`
	// CWCap is the hardware CWmin cap (0 = none).
	CWCap int `json:"cw_cap,omitempty"`
	// RecoveryTolerance is the stability metric's threshold fraction
	// (default 0.2).
	RecoveryTolerance float64 `json:"recovery_tolerance,omitempty"`
	// Flows lists the traffic sources; empty selects each topology's
	// default flows at 2 Mb/s.
	Flows []Flow `json:"flows,omitempty"`
	// Mobility selects node movement from the internal/mobility registry;
	// absent (or an off model) keeps the topology static, byte-identical
	// to files written before the block existed.
	Mobility *Mobility `json:"mobility,omitempty"`
	// Workload expands a gateway-scale client flow population in addition
	// to Flows; see ezflow.WorkloadSpec for its fields.
	Workload *ezflow.WorkloadSpec `json:"workload,omitempty"`
	// Dynamics is the perturbation timeline, in any order (events are
	// scheduled by their at_sec).
	Dynamics []Event `json:"dynamics,omitempty"`
}

// Mobility is the declarative form of a mobility configuration.
type Mobility struct {
	// Model: waypoint | trace, or an off spelling (off | static).
	Model string `json:"model"`
	// SpeedMps and SpeedMinMps bound waypoint leg speeds (defaults
	// 1.5 m/s and a quarter of the maximum).
	SpeedMps    float64 `json:"speed_mps,omitempty"`
	SpeedMinMps float64 `json:"speed_min_mps,omitempty"`
	// PauseSec is the waypoint dwell time (default 5 s).
	PauseSec float64 `json:"pause_sec,omitempty"`
	// TickSec is the position-update interval (default 0.5 s).
	TickSec float64 `json:"tick_sec,omitempty"`
	// Fixed pins nodes in place; absent pins the gateway (node 0), an
	// empty list pins nothing.
	Fixed []int `json:"fixed,omitempty"`
	// TraceFile names the JSON waypoint trace of the trace model,
	// resolved relative to the working directory.
	TraceFile string `json:"trace_file,omitempty"`
	// Seed overrides the run seed for trajectory generation.
	Seed int64 `json:"seed,omitempty"`
}

// Topology selects one of the repository's network builders.
type Topology struct {
	// Kind: chain | testbed | scenario1 | scenario2 | tree | grid | random.
	Kind string `json:"kind"`
	// Hops is the chain length (default 4).
	Hops int `json:"hops,omitempty"`
	// Branching and Depth shape the tree topology (defaults 3 and 2).
	Branching int `json:"branching,omitempty"`
	Depth     int `json:"depth,omitempty"`
	// Width and Height shape the grid topology (defaults 4 and 4).
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// Nodes is the random-disk node count (default 12).
	Nodes int `json:"nodes,omitempty"`
	// Radius is the random-disk radius in metres (0 = auto).
	Radius float64 `json:"radius,omitempty"`
	// EdgeLoss, for the random topology only, calibrates the
	// edge-of-range loss model: links near the transmission-range limit
	// erase with probability ramping quadratically up to this value (see
	// mesh.ApplyEdgeLoss). 0 keeps every link loss-free.
	EdgeLoss float64 `json:"edge_loss,omitempty"`
}

// Flow describes one traffic source.
type Flow struct {
	ID int `json:"id"`
	// RateBps is the source rate in bit/s (default 2e6).
	RateBps float64 `json:"rate_bps,omitempty"`
	// Bytes is the packet size (default 1028).
	Bytes int `json:"bytes,omitempty"`
	// StartSec/StopSec bound the source's activity (StopSec 0 = whole run).
	StartSec float64 `json:"start_sec,omitempty"`
	StopSec  float64 `json:"stop_sec,omitempty"`
	// Poisson selects Poisson arrivals instead of CBR.
	Poisson bool `json:"poisson,omitempty"`
}

// Event is one timed perturbation. Kind selects which fields are read;
// see internal/dynamics for the semantics of each kind.
type Event struct {
	AtSec float64 `json:"at_sec"`
	// Kind: link-down | link-up | link-loss | node-down | node-up |
	// region-loss | region-restore | flow-start | flow-stop | flow-rate.
	Kind string `json:"kind"`
	// A and B are the link endpoints of link-* events.
	A int `json:"a,omitempty"`
	B int `json:"b,omitempty"`
	// Node is the station of node-* events.
	Node int `json:"node,omitempty"`
	// Flow is the flow id of flow-* events.
	Flow int `json:"flow,omitempty"`
	// RateBps is the new rate of flow-rate events.
	RateBps float64 `json:"rate_bps,omitempty"`
	// Loss is the erasure probability of link-loss / region-loss events.
	Loss float64 `json:"loss,omitempty"`
	// X, Y and Radius define the region of region-loss events.
	X      float64 `json:"x,omitempty"`
	Y      float64 `json:"y,omitempty"`
	Radius float64 `json:"radius,omitempty"`
	// Drop makes node-down discard queued packets instead of draining
	// them on restart.
	Drop bool `json:"drop,omitempty"`
	// Reroute triggers BFS route repair after the event applies. Only
	// link-down/link-up/node-down/node-up accept it.
	Reroute bool `json:"reroute,omitempty"`
}

// eventKinds maps scenario-file spellings to dynamics kinds.
var eventKinds = map[string]dynamics.Kind{
	"link-down":      dynamics.LinkDown,
	"link-up":        dynamics.LinkUp,
	"link-loss":      dynamics.LinkLoss,
	"node-down":      dynamics.NodeDown,
	"node-up":        dynamics.NodeUp,
	"region-loss":    dynamics.RegionLoss,
	"region-restore": dynamics.RegionRestore,
	"flow-start":     dynamics.FlowStart,
	"flow-stop":      dynamics.FlowStop,
	"flow-rate":      dynamics.FlowRate,
}

// ParseMode maps the scenario-file and CLI spellings of the four control
// modes; the empty string selects plain 802.11 (the default). It is the
// single spelling table, so a scenario file can never parse under one
// CLI and be rejected by the other.
func ParseMode(s string) (ezflow.Mode, error) {
	switch strings.ToLower(s) {
	case "", "802.11", "80211", "plain":
		return ezflow.Mode80211, nil
	case "ezflow", "ez-flow":
		return ezflow.ModeEZFlow, nil
	case "penalty":
		return ezflow.ModePenalty, nil
	case "diffq":
		return ezflow.ModeDiffQ, nil
	}
	return 0, fmt.Errorf("scenario: unknown mode %q (want 802.11|ezflow|penalty|diffq)", s)
}

// Load reads and parses a scenario file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates a JSON scenario spec. Unknown fields are
// rejected so typos fail loudly instead of silently configuring nothing.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Clone returns a copy of s that settings can be applied to without
// touching s: the flows and the mobility and workload blocks are copied.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Flows = slices.Clone(s.Flows)
	c.Mobility, c.Workload = clonePtr(s.Mobility), clonePtr(s.Workload)
	return &c
}

// clonePtr returns a shallow copy of *p, or nil.
func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	c := *p
	return &c
}

// Validate checks everything that can be checked without building the
// mesh (node-id existence is validated at Build time by the dynamics
// engine, which knows the topology).
func (s *Spec) Validate() error {
	if err := s.Topology.Validate(); err != nil {
		return err
	}
	if _, err := ParseMode(s.Mode); err != nil {
		return err
	}
	if s.Controller != "" {
		if s.Mode != "" {
			return fmt.Errorf("scenario: mode %q and controller %q are mutually exclusive (set one)", s.Mode, s.Controller)
		}
		if _, err := ctl.Registry.Get(s.Controller); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if s.Routing != "" {
		if _, err := routing.Registry.Get(s.Routing); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if s.DurationSec < 0 {
		return fmt.Errorf("scenario: negative duration_sec %g", s.DurationSec)
	}
	seen := map[int]bool{}
	for i, f := range s.Flows {
		if f.ID <= 0 {
			return fmt.Errorf("scenario: flow %d: id must be positive", i)
		}
		if seen[f.ID] {
			return fmt.Errorf("scenario: duplicate flow id %d", f.ID)
		}
		seen[f.ID] = true
		if f.RateBps < 0 {
			return fmt.Errorf("scenario: flow %d: negative rate_bps", f.ID)
		}
	}
	if m := s.Mobility; m != nil && !mobility.IsOff(m.Model) {
		if _, err := mobility.Registry.Get(m.Model); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if m.SpeedMps < 0 || m.SpeedMinMps < 0 || m.PauseSec < 0 || m.TickSec < 0 {
			return fmt.Errorf("scenario: mobility speeds, pause and tick must be >= 0")
		}
		if m.SpeedMps > 0 && m.SpeedMinMps > m.SpeedMps {
			return fmt.Errorf("scenario: mobility speed_min_mps %g above speed_mps %g", m.SpeedMinMps, m.SpeedMps)
		}
		for _, id := range m.Fixed {
			if id < 0 {
				return fmt.Errorf("scenario: mobility fixed id %d is negative", id)
			}
		}
		if (m.Model == "trace") != (m.TraceFile != "") {
			return fmt.Errorf("scenario: trace_file is required by the trace model and meaningless elsewhere")
		}
	} else if m != nil && (m.TraceFile != "" || m.SpeedMps != 0) {
		return fmt.Errorf("scenario: mobility model %q is off but sets model parameters", m.Model)
	}
	if w := s.Workload; w != nil {
		if w.Gateway < 0 {
			return fmt.Errorf("scenario: workload gateway %d is negative", w.Gateway)
		}
		if err := w.Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	dur := s.DurationSec
	if dur <= 0 {
		dur = ezflow.DefaultDuration.Seconds()
	}
	for i, ev := range s.Dynamics {
		if _, ok := eventKinds[ev.Kind]; !ok {
			return fmt.Errorf("scenario: dynamics[%d]: unknown kind %q", i, ev.Kind)
		}
		if ev.AtSec < 0 {
			return fmt.Errorf("scenario: dynamics[%d]: negative at_sec", i)
		}
		if ev.AtSec > dur {
			return fmt.Errorf("scenario: dynamics[%d]: at_sec %g beyond duration %g", i, ev.AtSec, dur)
		}
	}
	return nil
}

// script converts the spec's dynamics timeline into a dynamics script.
func (s *Spec) script() *dynamics.Script {
	if len(s.Dynamics) == 0 {
		return nil
	}
	sc := &dynamics.Script{}
	for _, ev := range s.Dynamics {
		sc.Add(dynamics.Event{
			At:      sim.FromSeconds(ev.AtSec),
			Kind:    eventKinds[ev.Kind],
			A:       pkt.NodeID(ev.A),
			B:       pkt.NodeID(ev.B),
			Node:    pkt.NodeID(ev.Node),
			Flow:    pkt.FlowID(ev.Flow),
			RateBps: ev.RateBps,
			Loss:    ev.Loss,
			Center:  phy.Position{X: ev.X, Y: ev.Y},
			Radius:  ev.Radius,
			Drop:    ev.Drop,
			Reroute: ev.Reroute,
		})
	}
	return sc
}

// mobilityConfig resolves the mobility block into a runnable
// configuration, loading the trace file when the trace model is
// selected. It returns nil for a static spec.
func (m *Mobility) mobilityConfig() (*mobility.Config, error) {
	if m == nil || mobility.IsOff(m.Model) {
		return nil, nil
	}
	cfg := &mobility.Config{
		Model: m.Model,
		Opts: mobility.Options{
			SpeedMps:    m.SpeedMps,
			SpeedMinMps: m.SpeedMinMps,
			PauseSec:    m.PauseSec,
		},
		TickSec: m.TickSec,
		Seed:    m.Seed,
	}
	if m.Fixed != nil {
		cfg.Fixed = make([]pkt.NodeID, len(m.Fixed))
		for i, id := range m.Fixed {
			cfg.Fixed[i] = pkt.NodeID(id)
		}
	}
	if m.TraceFile != "" {
		tr, err := mobility.LoadTrace(m.TraceFile)
		if err != nil {
			return nil, fmt.Errorf("scenario: mobility trace: %w", err)
		}
		cfg.Opts.Trace = tr
	}
	return cfg, nil
}

// Config resolves the spec into the run configuration Build wires: seed,
// horizon, control plane, routing, MAC cap, statistics window, and the
// dynamics, mobility and workload blocks. Loading a mobility trace file
// is what can fail.
func (s *Spec) Config() (ezflow.Config, error) {
	cfg := ezflow.DefaultConfig()
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.DurationSec > 0 {
		cfg.Duration = sim.FromSeconds(s.DurationSec)
	}
	cfg.Mode, _ = ParseMode(s.Mode) // Validate vetted the spelling
	cfg.Controller = s.Controller
	cfg.Routing = s.Routing
	cfg.MAC.HardwareCWCap = s.CWCap
	cfg.WarmupSkip = sim.FromSeconds(s.WarmupSec)
	cfg.RecoveryTolerance = s.RecoveryTolerance
	cfg.Dynamics = s.script()
	cfg.Workload = clonePtr(s.Workload) // a run never shares a spec's block
	var err error
	cfg.Mobility, err = s.Mobility.mobilityConfig()
	return cfg, err
}

// flowSpecs converts the spec's flows, or the topology's default flows
// when it declares none, into ezflow flow specs.
func (s *Spec) flowSpecs() []ezflow.FlowSpec {
	flows := s.Flows
	if len(flows) == 0 {
		flows = s.Topology.defaultFlows()
	}
	out := make([]ezflow.FlowSpec, 0, len(flows))
	for _, f := range flows {
		rate := f.RateBps
		if rate == 0 {
			rate = 2e6
		}
		out = append(out, ezflow.FlowSpec{
			Flow:    ezflow.FlowID(f.ID),
			RateBps: rate,
			Bytes:   f.Bytes,
			Start:   sim.FromSeconds(f.StartSec),
			Stop:    sim.FromSeconds(f.StopSec),
			Poisson: f.Poisson,
		})
	}
	return out
}

// Build wires the spec into a runnable scenario.
func (s *Spec) Build() (*ezflow.Scenario, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	return s.BuildWith(cfg)
}

// BuildWith wires the spec's topology and flows around cfg, a config
// resolved by Config and then adjusted — ezsim sets the penalty factor,
// which has no spec field. Topology construction panics (disconnected
// placements, routes through unknown nodes, dynamics events naming absent
// nodes) are converted into errors.
func (s *Spec) BuildWith(cfg ezflow.Config) (sc *ezflow.Scenario, err error) {
	kind, ok := topologies[s.Topology.Kind]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown topology kind %q", s.Topology.Kind)
	}
	defer func() {
		if r := recover(); r != nil {
			sc, err = nil, fmt.Errorf("scenario: building %q: %v", s.Topology.Kind, r)
		}
	}()
	return kind.build(s.Topology.resolved(), cfg, s.flowSpecs()), nil
}
