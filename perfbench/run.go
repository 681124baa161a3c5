package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"ezflow"
	"ezflow/internal/dynamics"
	"ezflow/internal/mesh"
	"ezflow/internal/mobility"
	"ezflow/internal/sim"
)

// runSpec is one simulation run of a workload, built only from public
// calls: an ezflow config, a caller-supplied mesh builder and flows, and
// an optional dynamics script derived from the built mesh.
type runSpec struct {
	Name   string
	Cfg    ezflow.Config
	Build  func(*sim.Engine) *mesh.Mesh
	Flows  []ezflow.FlowSpec
	Script func(*ezflow.Scenario) *dynamics.Script
}

// phases holds the host time of each split point of one run.
type phases struct {
	Mesh, Wire, Index, Loop, Summary time.Duration
}

// Setup is the run's set-up time: mesh build, wiring and PHY index build.
func (p phases) Setup() time.Duration { return p.Mesh + p.Wire + p.Index }

func (p *phases) add(o phases) {
	p.Mesh += o.Mesh
	p.Wire += o.Wire
	p.Index += o.Index
	p.Loop += o.Loop
	p.Summary += o.Summary
}

// counters are the per-layer counts one run's public state exposes.
type counters struct {
	Events, Scheduled, Cancelled             uint64
	Tx, Collisions, Erasures                 uint64
	PacketNews, PacketReuses                 uint64
	FrameNews, FrameReuses                   uint64
	MACTxData, MACRetries, MACFailed         uint64
	CWChanges, OverheadBytes                 uint64
	Ticks, Moves, Deferred, Repairs, Reroute uint64
	RerouteFailures                          uint64
	SimSeconds                               float64
}

func (c *counters) add(o counters) {
	c.Events += o.Events
	c.Scheduled += o.Scheduled
	c.Cancelled += o.Cancelled
	c.Tx += o.Tx
	c.Collisions += o.Collisions
	c.Erasures += o.Erasures
	c.PacketNews += o.PacketNews
	c.PacketReuses += o.PacketReuses
	c.FrameNews += o.FrameNews
	c.FrameReuses += o.FrameReuses
	c.MACTxData += o.MACTxData
	c.MACRetries += o.MACRetries
	c.MACFailed += o.MACFailed
	c.CWChanges += o.CWChanges
	c.OverheadBytes += o.OverheadBytes
	c.Ticks += o.Ticks
	c.Moves += o.Moves
	c.Deferred += o.Deferred
	c.Repairs += o.Repairs
	c.Reroute += o.Reroute
	c.RerouteFailures += o.RerouteFailures
	c.SimSeconds += o.SimSeconds
}

// flowDigest is one flow's share of a run digest. Floats enter as their
// IEEE-754 bits so the digest is exact.
type flowDigest struct {
	Flow          ezflow.FlowID `json:"flow"`
	Delivered     uint64        `json:"delivered"`
	MeanDelayBits uint64        `json:"mean_delay_bits"`
}

// runDigest is the deterministic summary of one run's simulated
// statistics. Two runs of the same spec must produce equal digests.
type runDigest struct {
	Run         string          `json:"run"`
	Fired       uint64          `json:"fired"`
	Scheduled   uint64          `json:"scheduled"`
	Tx          uint64          `json:"tx"`
	Collisions  uint64          `json:"collisions"`
	Erasures    uint64          `json:"erasures"`
	Flows       []flowDigest    `json:"flows"`
	AggKbpsBits uint64          `json:"agg_kbps_bits"`
	Mobility    *mobility.Stats `json:"mobility,omitempty"`
	DynamicsLog int             `json:"dynamics_log"`
}

// Sum is the digest's SHA-256, shortened to 16 hex digits.
func (d runDigest) Sum() string {
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // a struct of integers and strings always marshals
	}
	return shortHash(b)
}

func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// runRecord is the outcome of one executed run.
type runRecord struct {
	Name    string
	Digest  string
	Phases  phases
	Counts  counters
	Result  *ezflow.Result
	Failure string
}

// execRun builds, runs and summarises one spec, timing each split point
// from outside the program and recording spans under parent when the
// tracer is on. A panic anywhere in the run is returned as a failure.
func execRun(spec runSpec, tr *tracer, parent, run int) (rec runRecord) {
	rec.Name = spec.Name
	defer func() {
		if r := recover(); r != nil {
			rec.Failure = fmt.Sprint(r)
		}
	}()
	root := tr.begin("run", parent, run)
	defer tr.end(root)

	sc, ph := buildWorld(spec, tr, root, run)

	s := tr.begin("sim.Engine.Run", root, run)
	t := time.Now()
	sc.Eng.Run(sc.Cfg.Duration)
	ph.Loop = time.Since(t)
	tr.end(s)

	s = tr.begin("ezflow.Scenario.Run", root, run)
	t = time.Now()
	res := sc.Run()
	ph.Summary = time.Since(t)
	tr.end(s)

	s = tr.begin("bench.digest", root, run)
	rec.Phases = ph
	rec.Result = res
	rec.Counts = countRun(sc, res)
	rec.Digest = digestRun(spec.Name, sc, res).Sum()
	tr.end(s)
	return rec
}

// buildWorld wires the spec's t=0 world and forces the PHY's lazy
// neighbor-index build, returning the split-point timings.
func buildWorld(spec runSpec, tr *tracer, parent, run int) (*ezflow.Scenario, phases) {
	var ph phases
	s := tr.begin("ezflow.NewScenario", parent, run)
	t := time.Now()
	sc := ezflow.NewScenario(spec.Cfg, func(eng *sim.Engine) *mesh.Mesh {
		b := tr.begin("setup.mesh", s, run)
		bt := time.Now()
		m := spec.Build(eng)
		ph.Mesh = time.Since(bt)
		tr.end(b)
		return m
	}, spec.Flows...)
	ph.Wire = time.Since(t) - ph.Mesh
	tr.end(s)
	if spec.Script != nil {
		s = tr.begin("ezflow.Scenario.AddDynamics", parent, run)
		t = time.Now()
		if err := sc.AddDynamics(spec.Script(sc)); err != nil {
			panic(err)
		}
		ph.Wire += time.Since(t)
		tr.end(s)
	}
	s = tr.begin("phy.Channel.Busy", parent, run)
	t = time.Now()
	sc.Mesh.Ch.Busy(0)
	ph.Index = time.Since(t)
	tr.end(s)
	return sc, ph
}

// countRun reads the counters every layer exposes after a run.
func countRun(sc *ezflow.Scenario, res *ezflow.Result) counters {
	c := counters{
		Events:          sc.Eng.Fired(),
		Scheduled:       sc.Eng.Scheduled(),
		Cancelled:       sc.Eng.Cancelled(),
		Tx:              sc.Mesh.Ch.Stats.Transmissions,
		Collisions:      sc.Mesh.Ch.Stats.Collisions,
		Erasures:        sc.Mesh.Ch.Stats.Erasures,
		OverheadBytes:   res.OverheadBytes,
		RerouteFailures: sc.Mesh.RerouteFailures(),
		SimSeconds:      sc.Cfg.Duration.Seconds(),
	}
	ps := sc.Mesh.Pool().Stats
	c.PacketNews, c.PacketReuses = ps.PacketNews, ps.PacketReuses
	c.FrameNews, c.FrameReuses = ps.FrameNews, ps.FrameReuses
	for _, n := range sc.Mesh.Nodes() {
		c.MACTxData += n.MAC.TxData
		c.MACRetries += n.MAC.TxRetries
		c.MACFailed += n.MAC.TxFailed
		for _, q := range n.MAC.Queues() {
			c.CWChanges += q.CWChanges
		}
	}
	if st := res.MobilityStats; st != nil {
		c.Ticks, c.Moves, c.Deferred, c.Repairs = st.Ticks, st.Moves, st.Deferred, st.Repairs
	}
	// Every scripted event of this benchmark asks for route repair.
	c.Reroute = uint64(len(res.DynamicsLog))
	return c
}

// digestRun condenses a run's simulated statistics into its digest.
func digestRun(name string, sc *ezflow.Scenario, res *ezflow.Result) runDigest {
	d := runDigest{
		Run:         name,
		Fired:       sc.Eng.Fired(),
		Scheduled:   sc.Eng.Scheduled(),
		Tx:          sc.Mesh.Ch.Stats.Transmissions,
		Collisions:  sc.Mesh.Ch.Stats.Collisions,
		Erasures:    sc.Mesh.Ch.Stats.Erasures,
		AggKbpsBits: math.Float64bits(res.AggKbps),
		Mobility:    res.MobilityStats,
		DynamicsLog: len(res.DynamicsLog),
	}
	for f, fr := range res.Flows {
		d.Flows = append(d.Flows, flowDigest{Flow: f, Delivered: fr.Delivered,
			MeanDelayBits: math.Float64bits(fr.MeanDelaySec)})
	}
	sort.Slice(d.Flows, func(i, j int) bool { return d.Flows[i].Flow < d.Flows[j].Flow })
	return d
}
