package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"ezflow"
	"ezflow/internal/campaign"
	"ezflow/internal/mesh"
	"ezflow/internal/sim"
)

// tinyRuns is a two-run workload small enough for unit tests.
func tinyRuns(seed int64) []runSpec {
	var out []runSpec
	for _, mode := range []ezflow.Mode{ezflow.Mode80211, ezflow.ModeEZFlow} {
		cfg := ezflow.DefaultConfig()
		cfg.Seed = seed
		cfg.Mode = mode
		cfg.Duration = 12 * ezflow.Second
		out = append(out, runSpec{Name: "chain3/" + mode.String(), Cfg: cfg,
			Build: func(e *sim.Engine) *mesh.Mesh { return mesh.Chain(e, 3, cfg.PHY, cfg.MAC) },
			Flows: []ezflow.FlowSpec{{Flow: 1, RateBps: 2e6}}})
	}
	return out
}

func TestDigestStable(t *testing.T) {
	specs := append(tinyRuns(3), diskRuns(3)[:2]...)
	mob := mobileRuns(3)[0]
	mob.Cfg.Duration = 40 * ezflow.Second // still past the scripted flap and churn
	specs = append(specs, mob)
	for _, s := range specs {
		a, b := execRun(s, nil, -1, 0), execRun(s, nil, -1, 0)
		if a.Failure != "" || b.Failure != "" {
			t.Fatalf("%s failed: %q %q", s.Name, a.Failure, b.Failure)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: digest %s then %s", s.Name, a.Digest, b.Digest)
		}
	}
	if a, b := execRun(tinyRuns(3)[0], nil, -1, 0), execRun(tinyRuns(4)[0], nil, -1, 0); a.Digest == b.Digest {
		t.Errorf("seeds 3 and 4 share digest %s", a.Digest)
	}
	if mob.Name != "waypoint200" || execRun(mob, nil, -1, 0).Counts.Reroute == 0 {
		t.Error("mobile run applied no scripted reroutes")
	}
}

// TestTracedDigestsMatchUntraced runs the same spec with and without a
// tracer: the split-point calls and spans must not change any output.
func TestTracedDigestsMatchUntraced(t *testing.T) {
	s := tinyRuns(5)[1]
	tr := newTracer()
	a, b := execRun(s, nil, -1, 0), execRun(s, tr, -1, 0)
	if a.Digest != b.Digest {
		t.Fatalf("traced digest %s, untraced %s", b.Digest, a.Digest)
	}
	names := map[string]bool{}
	for _, sp := range tr.spans {
		names[sp.Name] = true
		if sp.End < sp.Start {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
	}
	for _, n := range []string{"run", "ezflow.NewScenario", "setup.mesh", "phy.Channel.Busy",
		"sim.Engine.Run", "ezflow.Scenario.Run", "bench.digest"} {
		if !names[n] {
			t.Errorf("no %s span", n)
		}
	}
}

func TestCampaignPassesAgree(t *testing.T) {
	t.Chdir(t.TempDir())
	w, _ := workloadByName("campaign")
	full := w.Campaign
	w.Campaign = func(seed int64) (spec campaign.Spec) {
		spec = full(seed)
		spec.Reps, spec.DurationSec = 1, 5
		return spec
	}
	b, err := newBench(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := b.pass(nil), b.pass(nil)
	if p1.Failed+p2.Failed != 0 || len(b.errors) != 0 {
		t.Fatalf("campaign passes failed: %v", b.errors)
	}
	if p1.Digests[0] != p2.Digests[0] || p1.Hits != p1.Gets || p1.Hits == 0 {
		t.Errorf("passes disagree or warm replay missed: %+v %+v", p1.Digests, p1)
	}
	// A traced pass also samples worker utilisation while the engine runs.
	p3 := b.pass(newTracer())
	if p3.Failed != 0 || p3.Digests[0] != p1.Digests[0] {
		t.Fatalf("traced campaign pass: %v", b.errors)
	}
	if p3.Util <= 0 || p3.Util > 1 {
		t.Errorf("worker utilisation %v outside (0, 1]", p3.Util)
	}
}

// TestMetricsMatchBenchmarkJSON runs both modes on a tiny workload and
// checks the printed metrics against BENCHMARK.json's names and units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.Name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}

	t.Chdir(t.TempDir())
	b, err := newBench(workload{Name: "tiny", Runs: tinyRuns}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2e := b.untraced(time.Nanosecond)
	if !e2e.Correct || e2e.Attempted == 0 {
		t.Fatalf("untraced tiny run: %+v %v", e2e, b.errors)
	}
	checkMetrics(t, "end_to_end", e2e.Metrics, spec.EndToEnd, true)
	layers, err := b.traced(time.Nanosecond)
	if err != nil || !layers.Correct {
		t.Fatalf("traced tiny run: %v %v", err, b.errors)
	}
	checkMetrics(t, "per_layer", layers.Metrics, spec.PerLayer, false)
	if a := layers.Metrics["trace.attributed_frac"].Value; a < 0.95 {
		t.Errorf("spans cover %.3f of the traced passes, want >= 0.95", a)
	}
}

func checkMetrics(t *testing.T, kind string, got map[string]metric, want []struct{ Name, Unit string }, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not printed", kind, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", kind, w.Name, m.Unit, w.Unit)
		case positive && !(m.Value > 0):
			t.Errorf("%s: %s = %v, want > 0", kind, w.Name, m.Value)
		}
	}
}
