// Package campaign is the experiment-orchestration layer of the
// repository: it fans independent ezflow.Scenario runs out across a pool
// of workers and aggregates replications into the statistics the paper's
// evaluation grid needs (mean, standard deviation, 95% confidence
// intervals, Jain-index distributions).
//
// The package has two layers. The generic layer — RunAll — executes a
// slice of independent jobs on up to GOMAXPROCS goroutines and returns
// results in submission order; internal/exp routes every figure/table
// experiment through it. The declarative layer — Spec, Engine, Sink —
// describes a parameter sweep (topology × mode × rate × hops × CW cap)
// with per-point seed replications, runs the whole grid, and emits the
// outcome through pluggable sinks (human-readable report, JSON, CSV).
// The controller axis additionally sweeps the congestion-controller
// registry (internal/ctl), so head-to-head controller comparisons are one
// sweep away; the routing axis does the same for the routing-strategy
// registry (internal/routing).
//
// Determinism: every run's seed is derived purely from (base seed, point
// label, replication index) by DeriveSeed, and results are collected by
// grid position rather than completion order, so a campaign's output is
// byte-identical no matter how many workers execute it.
package campaign

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ezflow"
	"ezflow/internal/dynamics"
	"ezflow/internal/fabric"
	"ezflow/internal/mobility"
	"ezflow/internal/obs"
	"ezflow/internal/scenario"
	"ezflow/internal/stats"
)

// Spec declares a campaign: an ordered list of swept axes, the number of
// seed replications per grid point, and the shared run parameters.
type Spec struct {
	Name string `json:"name"`
	// Axes are the swept parameters, in sweep order. The grid is their
	// cartesian product; with no axes the campaign is a single point.
	Axes []Axis `json:"axes,omitempty"`
	// Reps is the number of independently seeded replications per point
	// (default 1).
	Reps int `json:"reps"`
	// BaseSeed feeds DeriveSeed; two campaigns with different base seeds
	// draw disjoint replication streams.
	BaseSeed int64 `json:"base_seed"`
	// DurationSec is the simulated duration of each run (default 600 s,
	// the paper's standard horizon).
	DurationSec float64 `json:"duration_sec"`
	// RateBps is the per-flow CBR rate when "rate" is not swept
	// (default 2 Mb/s, the paper's saturating source).
	RateBps float64 `json:"rate_bps"`
	// Scenario, when non-nil, is a declarative scenario file that
	// replaces the built-in topology/flow grid: every run builds from it
	// (its dynamics timeline included), and only the mode, rate, cap,
	// flap, and churn axes may be swept — topology-shaped axes conflict
	// and are rejected. The file's duration wins over DurationSec unless
	// the file leaves it unset.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	// Obs attaches the observability layer (metrics + flight recorder;
	// see internal/obs) to every run. It is excluded from serialization
	// on purpose: observability never perturbs a run, so campaign output
	// — the spec echo included — must stay byte-identical with it on or
	// off (golden tests pin this).
	Obs bool `json:"-"`
}

// sweeps reports whether the named axis is swept by this spec.
func (s Spec) sweeps(name string) bool {
	for _, ax := range s.Axes {
		if ax.Name == name {
			return true
		}
	}
	return false
}

// Axis is one swept parameter, named by a sweep axis (see AxisUsage): a
// scenario setting, which parses and validates each value, or a
// campaign-only fault axis, flap or churn (0|1), which severs the first
// flow's middle link, respectively halts its middle relay, from 40% to
// 50% of the run with BFS route repair. On built-in topologies "hops" is
// also the side of a grid, clamped to >= 2.
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// Upper bounds on a campaign's size, enforced by ParseSweep and
// Enumerate — the validation ezcampaign and ezserve share — so a hostile
// submission is rejected before anything is allocated for it.
const (
	// MaxRangeLen bounds the values one "lo..hi" sweep range expands to.
	MaxRangeLen = 10_000
	// MaxRuns bounds a campaign's grid points times replications.
	MaxRuns = 100_000
)

// axes maps every sweep axis to the Point field it sets. Values arrive
// parsed and validated by the scenario setting of the same name, or by
// parseBool01 for the fault axes.
var axes = map[string]func(p *Point, v any){
	"topology":   func(p *Point, v any) { p.Topology = v.(string) },
	"mode":       func(p *Point, v any) { p.Mode = v.(ezflow.Mode) },
	"controller": func(p *Point, v any) { p.Controller = v.(string) },
	"routing":    func(p *Point, v any) { p.Routing = v.(string) },
	"hops":       func(p *Point, v any) { p.Hops = v.(int) },
	"rate":       func(p *Point, v any) { p.RateBps = v.(float64) },
	"cap":        func(p *Point, v any) { p.CWCap = v.(int) },
	"nodes":      func(p *Point, v any) { p.Nodes = v.(int) },
	"mobility":   func(p *Point, v any) { p.Mobility = v.(string) },
	"speed":      func(p *Point, v any) { p.SpeedMps = v.(float64) },
	"pause":      func(p *Point, v any) { p.PauseSec = v.(float64) },
	"clients":    func(p *Point, v any) { p.Clients = v.(int) },
	"flap":       func(p *Point, v any) { p.Flap = v.(bool) },
	"churn":      func(p *Point, v any) { p.Churn = v.(bool) },
}

// AxisUsage lists every sweep axis with its accepted values, one per
// line in the scenario setting table's order, for help text.
func AxisUsage() string {
	var b strings.Builder
	line := func(name, usage string) { fmt.Fprintf(&b, "\n  %-10s %s", name, usage) }
	for _, st := range scenario.Settings {
		if _, ok := axes[st.Name]; ok {
			line(st.Name, st.Usage)
		}
	}
	line("flap", "0|1: mid-run link failure")
	line("churn", "0|1: mid-run relay outage")
	return b.String()
}

// ParseSweep parses the CLI sweep syntax "axis=v1,v2,..." into an Axis.
// Integer ranges expand: "hops=2..8" is hops 2,3,...,8.
func ParseSweep(s string) (Axis, error) {
	name, vals, ok := strings.Cut(s, "=")
	if !ok || vals == "" {
		return Axis{}, fmt.Errorf("campaign: sweep %q is not axis=v1,v2,...", s)
	}
	name = strings.ToLower(strings.TrimSpace(name))
	if _, ok := axes[name]; !ok {
		return Axis{}, fmt.Errorf("campaign: unknown sweep axis %q (want %s)", name, strings.Join(slices.Sorted(maps.Keys(axes)), "|"))
	}
	var out []string
	for _, v := range strings.Split(vals, ",") {
		v = strings.TrimSpace(v)
		if lo, hi, isRange := strings.Cut(v, ".."); isRange {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || a > b {
				return Axis{}, fmt.Errorf("campaign: bad range %q in sweep %q", v, s)
			}
			if b-a >= MaxRangeLen || b-a < 0 {
				return Axis{}, fmt.Errorf("campaign: range %q in sweep %q expands to more than %d values", v, s, MaxRangeLen)
			}
			for i := a; i <= b; i++ {
				out = append(out, strconv.Itoa(i))
			}
			continue
		}
		if v != "" {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return Axis{}, fmt.Errorf("campaign: sweep %q has no values", s)
	}
	return Axis{Name: name, Values: out}, nil
}

// Point is one fully resolved grid point of a campaign.
type Point struct {
	Index    int         `json:"index"`
	Label    string      `json:"label"`
	Topology string      `json:"topology"`
	Mode     ezflow.Mode `json:"mode"`
	Hops     int         `json:"hops"`
	RateBps  float64     `json:"rate_bps"`
	CWCap    int         `json:"cw_cap"`
	Nodes    int         `json:"nodes"`
	// Controller is the registry controller deployed at this point; empty
	// derives the control plane from Mode, "802.11" pins the raw baseline.
	Controller string `json:"controller,omitempty"`
	// Routing is the registry routing strategy at this point; empty keeps
	// the topology builder's minimum-hop routes (the "bfs" default).
	Routing string `json:"routing,omitempty"`
	// Flap and Churn are the fault-injection axes.
	Flap  bool `json:"flap,omitempty"`
	Churn bool `json:"churn,omitempty"`
	// Mobility is the mobility model at this point: empty means the
	// point adds none (a scenario file's block still applies), "off"
	// pins the topology static even over such a block. All four
	// mobility/workload fields are omitempty on purpose: points that
	// predate them keep their serialized form, so historical cache keys
	// and campaign goldens are unchanged.
	Mobility string `json:"mobility,omitempty"`
	// SpeedMps and PauseSec override the waypoint parameters when > 0.
	SpeedMps float64 `json:"speed_mps,omitempty"`
	PauseSec float64 `json:"pause_sec,omitempty"`
	// Clients overrides (or synthesizes) the workload population size.
	Clients int `json:"clients,omitempty"`
	// Scenario is the scenario file's name when the campaign runs from
	// one (Spec.Scenario), replacing the topology fields above.
	Scenario string `json:"scenario,omitempty"`
}

func (p *Point) set(axis, value string) error {
	field, ok := axes[axis]
	if !ok {
		return fmt.Errorf("campaign: unknown axis %q", axis)
	}
	parse := scenario.ParseSetting
	if axis == "flap" || axis == "churn" {
		parse = parseBool01
	}
	v, err := parse(axis, value)
	if err != nil {
		return err
	}
	field(p, v)
	return nil
}

// parseBool01 parses the 0|1 (or false|true) values of the fault axes.
func parseBool01(axis, v string) (any, error) {
	switch strings.ToLower(v) {
	case "0", "false", "off":
		return false, nil
	case "1", "true", "on":
		return true, nil
	}
	return nil, fmt.Errorf("campaign: bad %s value %q (want 0|1)", axis, v)
}

// gridSide maps the hops axis to the side of a grid topology, clamped to
// 2 (a 1×1 "grid" has no route to install). Label and scenario builder
// share this so the report can never disagree with the run.
func (p Point) gridSide() int {
	if p.Hops < 2 {
		return 2
	}
	return p.Hops
}

func (p Point) makeLabel() string {
	var b string
	if p.Scenario != "" {
		b = fmt.Sprintf("scenario=%s mode=%v", p.Scenario, p.Mode)
		if p.Controller != "" {
			b = fmt.Sprintf("scenario=%s ctl=%s", p.Scenario, p.Controller)
		}
		if p.RateBps > 0 { // only set when the rate axis is swept
			b += fmt.Sprintf(" rate=%g", p.RateBps)
		}
	} else {
		b = fmt.Sprintf("topology=%s mode=%v", p.Topology, p.Mode)
		if p.Controller != "" {
			b = fmt.Sprintf("topology=%s ctl=%s", p.Topology, p.Controller)
		}
		switch p.Topology {
		case "chain":
			b += fmt.Sprintf(" hops=%d", p.Hops)
		case "grid":
			b += fmt.Sprintf(" side=%d", p.gridSide())
		case "random":
			b += fmt.Sprintf(" nodes=%d", p.Nodes)
		}
		b += fmt.Sprintf(" rate=%g", p.RateBps)
	}
	if p.Routing != "" {
		// Only an explicitly swept/filed strategy reaches the label (and
		// with it DeriveSeed) — points without one keep their pre-routing
		// labels, so historical campaign seeds are unchanged.
		b += fmt.Sprintf(" routing=%s", p.Routing)
	}
	// Like routing above, the mobility/workload fragments append only
	// when a point sets them, so pre-mobility labels (and with them
	// DeriveSeed streams and cache keys) are untouched.
	if p.Mobility != "" {
		b += fmt.Sprintf(" mobility=%s", p.Mobility)
	}
	if p.SpeedMps > 0 {
		b += fmt.Sprintf(" speed=%g", p.SpeedMps)
	}
	if p.PauseSec > 0 {
		b += fmt.Sprintf(" pause=%g", p.PauseSec)
	}
	if p.Clients > 0 {
		b += fmt.Sprintf(" clients=%d", p.Clients)
	}
	if p.CWCap > 0 {
		b += fmt.Sprintf(" cap=%d", p.CWCap)
	}
	if p.Flap {
		b += " flap=1"
	}
	if p.Churn {
		b += " churn=1"
	}
	return b
}

// Enumerate expands the spec's axes into the cartesian grid of points,
// in deterministic axis-major order. With a scenario file attached, the
// base point mirrors the file (its name, mode and per-flow rates) and
// topology-shaped axes are rejected. Grids over MaxRuns runs, and
// built-in topologies over scenario.MaxNodes nodes, are rejected before
// any point is built.
func (s Spec) Enumerate() ([]Point, error) {
	base := Point{Topology: "chain", Mode: ezflow.Mode80211, Hops: 4, RateBps: s.RateBps, Nodes: 12}
	if base.RateBps <= 0 {
		base.RateBps = 2e6
	}
	size, _ := s.effective()
	for _, ax := range s.Axes {
		if size <= MaxRuns { // bounds the product below 2^63
			size *= len(ax.Values)
		}
	}
	if size > MaxRuns {
		return nil, fmt.Errorf("campaign: more than %d runs (grid points x reps)", MaxRuns)
	}
	if s.sweeps("mode") && s.sweeps("controller") {
		return nil, fmt.Errorf("campaign: the mode and controller axes are mutually exclusive (controller subsumes mode)")
	}
	if s.sweeps("speed") || s.sweeps("pause") {
		fileMobile := s.Scenario != nil && s.Scenario.Mobility != nil && !mobility.IsOff(s.Scenario.Mobility.Model)
		if !s.sweeps("mobility") && !fileMobile {
			return nil, fmt.Errorf("campaign: the speed/pause axes need a mobility model (sweep mobility, or attach a scenario file with a mobility block)")
		}
	}
	if s.Scenario != nil {
		for _, ax := range s.Axes {
			if st, ok := scenario.LookupSetting(ax.Name); ok && st.Topology {
				return nil, fmt.Errorf("campaign: axis %q conflicts with the scenario file (its topology is fixed)", ax.Name)
			}
			// The rate axis rewrites the file's declared flows; with none
			// declared, the topology's built-in defaults would run instead
			// and every rate point would be a silent lie.
			if ax.Name == "rate" && len(s.Scenario.Flows) == 0 {
				return nil, fmt.Errorf("campaign: the rate axis needs the scenario file to declare flows explicitly")
			}
		}
		if s.Scenario.Controller != "" && s.sweeps("mode") {
			return nil, fmt.Errorf("campaign: the mode axis conflicts with the scenario file's controller %q (sweep controller instead)", s.Scenario.Controller)
		}
		name := s.Scenario.Name
		if name == "" {
			name = s.Scenario.Topology.Kind
		}
		mode, err := scenario.ParseMode(s.Scenario.Mode)
		if err != nil {
			return nil, err
		}
		// RateBps 0 marks "rates come from the file" until the rate axis
		// overrides it.
		base = Point{Scenario: name, Mode: mode, Controller: s.Scenario.Controller, Routing: s.Scenario.Routing, CWCap: s.Scenario.CWCap}
		// Trial-build the base point once (no run), as its runs build it:
		// an invalid file, dynamics events past the campaign duration
		// (when the file sets none) or naming nodes absent from the
		// topology surface here as an error, not inside a pool worker.
		_, durSec := s.effective()
		trial, err := pointSpec(s, base, 1, durSec)
		if err == nil {
			_, err = trial.Build()
		}
		if err != nil {
			return nil, err
		}
	}
	points := []Point{base}
	for _, ax := range s.Axes {
		next := make([]Point, 0, len(points)*len(ax.Values))
		for _, p := range points {
			for _, v := range ax.Values {
				q := p
				if err := q.set(ax.Name, v); err != nil {
					return nil, err
				}
				next = append(next, q)
			}
		}
		points = next
	}
	for i := range points {
		if s.Scenario == nil {
			if err := points[i].topology().Validate(); err != nil {
				return nil, err
			}
		}
		points[i].Index = i
		points[i].Label = points[i].makeLabel()
	}
	return points, nil
}

// DeriveSeed maps (campaign base seed, point label, replication index)
// to one run's seed. It is a pure function of its arguments — an FNV-1a
// hash of the label mixed with the base and replication through a
// splitmix64 finaliser — so a campaign's runs are seeded identically
// regardless of worker count or completion order, and different
// replications of the same point get well-separated streams.
func DeriveSeed(base int64, label string, rep int) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := h.Sum64() + uint64(base)*0x9E3779B97F4A7C15 + uint64(rep)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	s := int64(x)
	if s == 0 {
		s = 1
	}
	return s
}

// RunResult is the scalar outcome of one replication.
type RunResult struct {
	Point int    `json:"point"`
	Label string `json:"label"`
	Rep   int    `json:"rep"`
	Seed  int64  `json:"seed"`
	// AggKbps is the cumulative mean goodput across flows.
	AggKbps float64 `json:"agg_kbps"`
	// Fairness is Jain's index over per-flow mean throughputs.
	Fairness float64 `json:"fairness"`
	// MeanDelaySec averages the per-flow mean end-to-end delays.
	MeanDelaySec float64 `json:"mean_delay_sec"`
	// MaxQueuePkts is the largest sampled MAC backlog at any node.
	MaxQueuePkts float64 `json:"max_queue_pkts"`
	// RecoverySec is the slowest flow's fault-recovery time in seconds:
	// -1 when the run had no fault, -2 when some flow never recovered
	// (see ezflow.StabilityResult).
	RecoverySec float64 `json:"recovery_sec"`
	// TailQueuePkts is the largest relay backlog over the run's final
	// third after a fault (0 when the run had no fault) — the divergence
	// indicator of the stability experiments.
	TailQueuePkts float64 `json:"tail_queue_pkts"`
	// Failed marks a replication that produced no result: it panicked,
	// exceeded the per-run wall-clock timeout, or its assignment kept
	// killing workers until the supervisor gave up on it. Failed runs are
	// excluded from aggregation (Aggregate.FailedRuns counts them) and
	// never cached. Both fields are empty on healthy runs, so campaign
	// output without failures is byte-identical to pre-failure-model
	// output.
	Failed bool `json:"failed,omitempty"`
	// Error describes why the run failed; empty when Failed is false.
	Error string `json:"error,omitempty"`
	// FlowKbps is each flow's mean goodput.
	FlowKbps map[ezflow.FlowID]float64 `json:"flow_kbps"`

	// binKbps accumulates the run's per-bin throughput samples across
	// flows; the engine Merges these across replications into the pooled
	// bin statistics of Aggregate.BinKbps.
	binKbps stats.Welford
}

// Aggregate summarises one grid point across its replications.
type Aggregate struct {
	Point
	Reps         int           `json:"n_reps"`
	AggKbps      stats.Summary `json:"agg_kbps"`
	Fairness     stats.Summary `json:"fairness"`
	MeanDelaySec stats.Summary `json:"mean_delay_sec"`
	MaxQueuePkts stats.Summary `json:"max_queue_pkts"`
	// BinKbps pools every replication's per-bin throughput samples (a
	// Welford merge), capturing within-run variability on top of the
	// across-replication statistics above.
	BinKbps stats.Summary `json:"bin_kbps"`
	// RecoverySec summarises fault-recovery times across the
	// replications that recovered (N < Reps means some never did; N = 0
	// on fault-free points).
	RecoverySec stats.Summary `json:"recovery_sec"`
	// TailQueuePkts summarises the post-fault tail relay backlog across
	// replications of faulted runs.
	TailQueuePkts stats.Summary `json:"tail_queue_pkts"`
	// FailedRuns counts replications of this point that ended marked
	// failed (and are therefore absent from every summary above). A
	// non-zero count is the graceful-degradation marker: the campaign
	// completed, but this cell is partial.
	FailedRuns int `json:"failed_runs,omitempty"`
}

// Result is a completed campaign: per-point aggregates plus every
// individual replication, both in deterministic grid order. Elapsed is
// wall-clock time and deliberately excluded from serialisation so that
// JSON output is reproducible.
type Result struct {
	Spec    Spec          `json:"spec"`
	Points  []Aggregate   `json:"points"`
	Runs    []RunResult   `json:"runs"`
	Elapsed time.Duration `json:"-"`
}

// Engine executes campaigns on a worker pool.
type Engine struct {
	// Parallel is the maximum number of runs in flight; 0 selects
	// GOMAXPROCS. Results do not depend on it.
	Parallel int
	// Progress, when non-nil, is called after every completed run with
	// the number finished so far. Calls are serialised but arrive in
	// completion order, not grid order.
	Progress func(done, total int)
	// Cache, when non-nil, is consulted before every replication and
	// filled (atomically, via the store's write-temp-rename) as each
	// completes, so repeated sweeps only pay for new points and an
	// interrupted campaign resumes from its completed runs. Cache hits
	// return results byte-identical to the runs they replace — the
	// warm-cache golden tests pin this.
	Cache *fabric.Store
	// Interrupt, when non-nil, requests a graceful stop when closed: no
	// new replications start, in-flight ones finish (and reach the
	// cache), and Run returns ErrInterrupted.
	Interrupt <-chan struct{}
	// RunActive, when non-nil, is incremented for the duration of every
	// replication that actually simulates — cache hits never touch it.
	// It is the worker-utilization probe of cmd/ezserve.
	RunActive *atomic.Int64
	// RunTimeout, when positive, caps each replication's wall-clock time:
	// a run still simulating past the deadline is abandoned and recorded
	// as a structured per-run failure instead of hanging the campaign.
	// The abandoned goroutine keeps running until its simulation returns
	// (in-process isolation cannot kill it — use -shards for hard
	// isolation); its late result is discarded. 0 disables the timeout,
	// which is the default because a timeout makes output timing-
	// dependent and therefore non-reproducible on pathological runs.
	RunTimeout time.Duration
	// Faults, when non-nil, additionally receives this engine's fault
	// events — the aggregation hook for callers running many engines
	// (cmd/ezserve's /metrics gauges). The engine always tracks its own
	// per-campaign counters too; read them with FaultStats.
	Faults *FaultCounters

	hits, misses atomic.Uint64
	faults       FaultCounters
}

// CacheStats reports the engine's cumulative cache traffic across its
// Run calls (both zero when no Cache is attached). Safe to call
// concurrently with Run — ezserve polls it for live status.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{Hits: e.hits.Load(), Misses: e.misses.Load()}
}

// FaultStats reports the engine's cumulative fault-handling events
// (timeouts, recovered panics, failed runs). Safe to call concurrently
// with Run — ezserve polls it for live status.
func (e *Engine) FaultStats() FaultStats {
	return e.faults.Snapshot()
}

// ErrInterrupted is returned by Engine.Run when its Interrupt channel
// closed before the grid completed. Every replication finished by then
// has reached the cache, so rerunning the same spec resumes where the
// interrupted campaign stopped.
var ErrInterrupted = errors.New("campaign: interrupted before completion")

// effective resolves the spec's defaulted execution parameters: the
// replication count and the per-run simulated duration in seconds.
func (s Spec) effective() (reps int, durSec float64) {
	reps = s.Reps
	if reps <= 0 {
		reps = 1
	}
	durSec = s.DurationSec
	if durSec <= 0 {
		durSec = ezflow.DefaultDuration.Seconds()
	}
	return reps, durSec
}

// Run executes the campaign and returns the aggregated result.
func (e *Engine) Run(spec Spec) (*Result, error) {
	points, err := spec.Enumerate()
	if err != nil {
		return nil, err
	}
	reps, durSec := spec.effective()
	parallel := e.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}

	jobs := make([]func() RunResult, 0, len(points)*reps)
	for _, p := range points {
		for rep := 0; rep < reps; rep++ {
			p, rep := p, rep
			jobs = append(jobs, func() RunResult { return e.exec(spec, p, rep, durSec) })
		}
	}
	start := time.Now()
	runs, interrupted := runAllCancel(parallel, jobs, e.Progress, e.Interrupt)
	if interrupted {
		return nil, ErrInterrupted
	}
	res := assemble(spec, points, reps, runs)
	res.Elapsed = time.Since(start)
	return res, nil
}

// exec satisfies one replication: from the cache when possible,
// otherwise by simulating and (best-effort) caching the outcome. Cache
// write failures never fail a run — the result is simply recomputed
// next time. Failed runs (timeout, panic) are never cached: a timeout
// is environment-dependent and a panic may be fixed by the next code
// version, so both must re-execute on retry.
func (e *Engine) exec(spec Spec, p Point, rep int, durSec float64) RunResult {
	if e.Cache == nil {
		return e.simulate(spec, p, rep, durSec)
	}
	key, err := runKey(spec, p, rep, durSec)
	if err != nil {
		return e.simulate(spec, p, rep, durSec)
	}
	var w wireRun
	if e.Cache.Get(key, &w) {
		e.hits.Add(1)
		return w.run(p, rep)
	}
	e.misses.Add(1)
	rr := e.simulate(spec, p, rep, durSec)
	if !rr.Failed {
		e.Cache.Put(key, wireFromRun(rr)) //nolint:errcheck // cache writes are best-effort
	}
	return rr
}

// simulate runs one replication under the engine's isolation policy
// (panic recovery, optional wall-clock timeout), tracking worker
// utilization.
func (e *Engine) simulate(spec Spec, p Point, rep int, durSec float64) RunResult {
	if e.RunActive != nil {
		e.RunActive.Add(1)
		defer e.RunActive.Add(-1)
	}
	return e.runIsolated(spec, p, rep, durSec)
}

// assemble aggregates the grid's replications (in grid order: the run
// for (point i, rep r) sits at runs[i*reps+r]) into the campaign
// result. It is shared by the in-process engine and the sharded
// coordinator, which is what makes shard-merged output byte-identical
// to a single-process run. Failed replications are counted per point
// and excluded from every accumulator — a degraded cell reports the
// statistics of its surviving runs.
func assemble(spec Spec, points []Point, reps int, runs []RunResult) *Result {
	res := &Result{Spec: spec, Runs: runs}
	for i, p := range points {
		agg := Aggregate{Point: p, Reps: reps}
		var aggW, fairW, delayW, queueW, binW, recW, tailW stats.Welford
		for rep := 0; rep < reps; rep++ {
			r := runs[i*reps+rep]
			if r.Failed {
				agg.FailedRuns++
				continue
			}
			aggW.Add(r.AggKbps)
			fairW.Add(r.Fairness)
			delayW.Add(r.MeanDelaySec)
			queueW.Add(r.MaxQueuePkts)
			binW.Merge(r.binKbps)
			if r.RecoverySec >= 0 {
				recW.Add(r.RecoverySec)
			}
			if r.RecoverySec != -1 { // the run had a fault
				tailW.Add(r.TailQueuePkts)
			}
		}
		agg.AggKbps = aggW.Summarize()
		agg.Fairness = fairW.Summarize()
		agg.MeanDelaySec = delayW.Summarize()
		agg.MaxQueuePkts = queueW.Summarize()
		agg.BinKbps = binW.Summarize()
		agg.RecoverySec = recW.Summarize()
		agg.TailQueuePkts = tailW.Summarize()
		res.Points = append(res.Points, agg)
	}
	return res
}

// topology is the built-in network a point without a scenario file runs.
func (p Point) topology() scenario.Topology {
	side := p.gridSide()
	return scenario.Topology{Kind: p.Topology, Hops: p.Hops, Width: side, Height: side, Nodes: p.Nodes}
}

// pointSpec turns one replication of a point into the scenario it runs:
// the campaign's scenario file, cloned, or a spec of the point's
// built-in topology, with the point's settings applied through the
// scenario setting table. A file's own duration wins over durSec.
func pointSpec(spec Spec, p Point, seed int64, durSec float64) (*scenario.Spec, error) {
	s := &scenario.Spec{Topology: p.topology()}
	if spec.Scenario != nil {
		s = spec.Scenario.Clone()
	}
	set := map[string]string{
		"mode": p.Mode.ControllerName(), // "" is plain 802.11
		"cap":  strconv.Itoa(p.CWCap),
		"seed": strconv.FormatInt(seed, 10),
	}
	num := func(name string, v float64) {
		if v > 0 {
			set[name] = strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	str := func(name, v string) {
		if v != "" {
			set[name] = v
		}
	}
	if s.DurationSec <= 0 {
		num("duration", durSec)
	}
	str("controller", p.Controller)
	str("routing", p.Routing)
	str("mobility", p.Mobility)
	if p.Mobility != "off" { // a static point ignores the speed and pause axes
		num("speed", p.SpeedMps)
		num("pause", p.PauseSec)
	}
	if p.Clients > 0 {
		set["clients"] = strconv.Itoa(p.Clients)
	}
	num("rate", p.RateBps) // 0 on file points: the file's rates stand
	return s, s.Apply(set)
}

func runOne(spec Spec, p Point, rep int, durSec float64) RunResult {
	seed := DeriveSeed(spec.BaseSeed, p.Label, rep)
	s, err := pointSpec(spec, p, seed, durSec)
	if err != nil {
		panic(err) // the isolation layer records a failed run
	}
	sc, err := s.Build()
	if err != nil {
		panic(err)
	}
	applyAxisFaults(sc, p)
	if spec.Obs {
		sc.EnableObs(obs.Config{Metrics: true, FlightRecorder: 4096})
	}
	res := sc.Run()
	rr := RunResult{
		Point: p.Index, Label: p.Label, Rep: rep, Seed: seed,
		AggKbps:     res.AggKbps,
		Fairness:    res.Fairness,
		RecoverySec: -1,
		FlowKbps:    make(map[ezflow.FlowID]float64, len(res.Flows)),
	}
	if st := res.Stability; st != nil {
		if st.Recovered {
			rr.RecoverySec = st.MaxRecoverySec
		} else {
			rr.RecoverySec = -2
		}
		rr.TailQueuePkts = st.TailMaxQueuePkts
	}
	// Iterate flows in sorted order: float accumulation order must not
	// depend on map iteration, or multi-flow results lose bit-for-bit
	// reproducibility.
	flowIDs := make([]ezflow.FlowID, 0, len(res.Flows))
	for f := range res.Flows {
		flowIDs = append(flowIDs, f)
	}
	sort.Slice(flowIDs, func(i, j int) bool { return flowIDs[i] < flowIDs[j] })
	var delaySum float64
	for _, f := range flowIDs {
		fr := res.Flows[f]
		rr.FlowKbps[f] = fr.MeanThroughputKbps
		delaySum += fr.MeanDelaySec
		for _, pt := range fr.Throughput.Points {
			rr.binKbps.Add(pt.V)
		}
	}
	if len(res.Flows) > 0 {
		rr.MeanDelaySec = delaySum / float64(len(res.Flows))
	}
	for _, tr := range res.QueueTraces {
		if m := tr.Max(); m > rr.MaxQueuePkts {
			rr.MaxQueuePkts = m
		}
	}
	return rr
}

// applyAxisFaults layers the flap/churn axes' perturbations onto a built
// scenario: the first flow's middle link is severed (flap) and/or its
// middle relay halted (churn) from 40% to 50% of the run, with BFS route
// repair at both edges. Points whose first flow has no relay (1-hop
// routes) skip churn rather than fail.
func applyAxisFaults(sc *ezflow.Scenario, p Point) {
	if !p.Flap && !p.Churn {
		return
	}
	flows := sc.Mesh.Flows()
	if len(flows) == 0 {
		return
	}
	f := flows[0]
	dur := sc.Cfg.Duration
	downAt, upAt := dur/5*2, dur/2
	script := &dynamics.Script{}
	if p.Flap {
		a, b := dynamics.MiddleLink(sc.Mesh, f)
		script.Events = append(script.Events, dynamics.Flap(a, b, downAt, upAt, true)...)
	}
	if p.Churn && len(sc.Mesh.Route(f)) >= 3 {
		n := dynamics.MiddleRelay(sc.Mesh, f)
		script.Events = append(script.Events, dynamics.Churn(n, downAt, upAt, false, true)...)
	}
	if len(script.Events) == 0 {
		return
	}
	if err := sc.AddDynamics(script); err != nil {
		panic(err)
	}
}
