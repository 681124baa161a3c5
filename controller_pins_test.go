package ezflow

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// pinFingerprint renders the value pins of one run: per-flow deliveries,
// the exact bits of the aggregate throughput, every final contention
// window, the number of contention-window traces and of their points, and
// the control bytes.
func pinFingerprint(res *Result) string {
	var b strings.Builder
	var flows []FlowID
	for f := range res.Flows {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	for _, f := range flows {
		fmt.Fprintf(&b, "%v=%d ", f, res.Flows[f].Delivered)
	}
	fmt.Fprintf(&b, "agg=%#x", math.Float64bits(res.AggKbps))
	var keys []string
	for k := range res.FinalCW {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, res.FinalCW[k])
	}
	points := 0
	for _, tr := range res.CWTraces {
		points += len(tr)
	}
	fmt.Fprintf(&b, " traces=%d points=%d overhead=%d", len(res.CWTraces), points, res.OverheadBytes)
	return b.String()
}

// TestControllerPathPins value-pins the controller paths the campaign
// goldens do not reach: EZ-Flow under RTS/CTS, under sniff loss and on a
// per-successor tree, and the staticcap and feedback controllers on a
// chain. The wanted strings were recorded before EZ-Flow was deployed
// through the generic controller layer, so they also pin that port.
func TestControllerPathPins(t *testing.T) {
	chain := func(cfg Config) *Scenario {
		return NewChain(4, cfg, FlowSpec{Flow: 1, RateBps: 2e6})
	}
	cases := []struct {
		name  string
		build func() *Scenario
		want  string
	}{
		{"ezflow/chain4/rtscts", func() *Scenario {
			cfg := quickCfg(ModeEZFlow, 600*Second)
			cfg.MAC.UseRTSCTS = true
			return chain(cfg)
		},
			"F1=11375 agg=0x40637978f16d8ebe N0->N1=32 N1->N2=32 N2->N3=32 traces=3 points=3 overhead=0"},
		{"ezflow/chain4/sniffloss", func() *Scenario {
			cfg := quickCfg(ModeEZFlow, 600*Second)
			cfg.EZ.SniffLoss = 0.5
			return chain(cfg)
		},
			"F1=15942 agg=0x406b4fcb3ceb58b1 N0->N1=64 N1->N2=32 N2->N3=32 traces=3 points=4 overhead=0"},
		{"ezflow/tree2x2", func() *Scenario {
			return NewTree(2, 2, quickCfg(ModeEZFlow, 600*Second))
		},
			"F1=16260 F2=32 F3=16260 F4=32 agg=0x407bea20566b2d27 N0->N1=32 N0->N2=32 traces=2 points=2 overhead=0"},
		{"staticcap/chain4", func() *Scenario {
			cfg := quickCfg(Mode80211, 600*Second)
			cfg.Controller = "staticcap"
			return chain(cfg)
		},
			"F1=15057 agg=0x4069cb495c2c83b8 traces=0 points=0 overhead=0"},
		{"feedback/chain4", func() *Scenario {
			cfg := quickCfg(Mode80211, 600*Second)
			cfg.Controller = "feedback"
			return chain(cfg)
		},
			"F1=15458 agg=0x406a78cc8cd1aff8 traces=0 points=0 overhead=307072"},
	}
	for _, c := range cases {
		if got := pinFingerprint(c.build().Run()); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
