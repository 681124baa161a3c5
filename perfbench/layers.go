package main

import (
	"fmt"
	"path/filepath"
	"time"

	"ezflow"
	"ezflow/internal/campaign"
	"ezflow/internal/fabric"
)

// fabricCalls is how many key derivations, puts and gets the fabric
// probe times; its figures are their medians.
const fabricCalls = 200

// layerMetrics turns the traced passes into the per-layer metrics. plain
// are the untraced passes the tracing overhead is measured against.
func (b *bench) layerMetrics(plain []passStats, passes []passStats, spans []span, shares map[string]float64) map[string]metric {
	med := func(f func(p passStats) float64) float64 { return medianOf(passes, f) }
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	secs := func(f func(p passStats) time.Duration) float64 {
		return med(func(p passStats) float64 { return f(p).Seconds() })
	}
	c := passes[0].Counts // counts repeat exactly across passes
	m := map[string]metric{
		"setup.mesh_s":      {secs(func(p passStats) time.Duration { return p.Phases.Mesh }), "s"},
		"setup.wire_s":      {secs(func(p passStats) time.Duration { return p.Phases.Wire }), "s"},
		"setup.phy_index_s": {secs(func(p passStats) time.Duration { return p.Phases.Index }), "s"},
		"loop_s":            {secs(func(p passStats) time.Duration { return p.Phases.Loop }), "s"},
		"summary_s":         {secs(func(p passStats) time.Duration { return p.Phases.Summary }), "s"},
		"sim.events":        {float64(c.Events), "count"},
		"sim.ns_per_event": {med(func(p passStats) float64 {
			if p.Counts.Events == 0 {
				return 0
			}
			return float64(p.Phases.Loop.Nanoseconds()) / float64(p.Counts.Events)
		}), "ns"},
		"sim.cancel_ratio":       {ratio(c.Cancelled, c.Scheduled), "ratio"},
		"phy.transmissions":      {float64(c.Tx), "count"},
		"phy.collision_ratio":    {ratio(c.Collisions, c.Tx), "ratio"},
		"phy.erasure_ratio":      {ratio(c.Erasures, c.Tx), "ratio"},
		"phy.moves":              {float64(c.Moves), "count"},
		"pkt.packet_reuse_ratio": {ratio(c.PacketReuses, c.PacketReuses+c.PacketNews), "ratio"},
		"pkt.frame_reuse_ratio":  {ratio(c.FrameReuses, c.FrameReuses+c.FrameNews), "ratio"},
		"mac.tx_data":            {float64(c.MACTxData), "count"},
		"mac.retry_ratio":        {ratio(c.MACRetries, c.MACTxData), "ratio"},
		"mac.fail_ratio":         {ratio(c.MACFailed, c.MACTxData), "ratio"},
		"ctl.cw_changes":         {float64(c.CWChanges), "count"},
		"ctl.overhead_bytes":     {float64(c.OverheadBytes), "bytes"},
		"routing.repairs":        {float64(c.Repairs + c.Reroute), "count"},
		"mesh.reroute_failures":  {float64(c.RerouteFailures), "count"},
		"mobility.ticks":         {float64(c.Ticks), "count"},
		"mobility.deferred":      {float64(c.Deferred), "count"},
		"campaign.run_s": {med(func(p passStats) float64 {
			if b.w.Campaign == nil || p.ColdRuns == 0 {
				return 0
			}
			return p.Cold.Seconds() / float64(p.ColdRuns)
		}), "s"},
		"campaign.worker_util": {med(func(p passStats) float64 { return p.Util }), "ratio"},
		"fabric.hit_ratio":     {med(func(p passStats) float64 { return ratio(p.Hits, p.Gets) }), "ratio"},
		"go.alloc_mb":          {med(func(p passStats) float64 { return float64(p.AllocBytes) / 1e6 }), "MB"},
		"trace.overhead_frac": {secs(func(p passStats) time.Duration { return p.Wall }) /
			medianOf(plain, func(p passStats) float64 { return p.Wall.Seconds() }), "ratio"},
		"trace.attributed_frac": {attributed(spans), "ratio"},
		"host.calib_ms":         {medianOf(plain, func(p passStats) float64 { return mean(p.Calibs) }) * 1e3, "ms"},
	}
	var gc, all float64
	for _, p := range passes {
		gc += p.GCCPU
		all += p.AllCPU
	}
	if all > 0 {
		m["go.gc_cpu_frac"] = metric{gc / all, "ratio"}
	} else {
		m["go.gc_cpu_frac"] = metric{0, "ratio"}
	}
	for _, l := range profLayers {
		m["prof."+l] = metric{shares[l], "share"}
	}
	key, get, put, err := fabricProbe(filepath.Join(b.storeRoot, "probe"))
	if err != nil {
		b.errors = append(b.errors, err.Error())
	}
	m["fabric.key_us"] = metric{key, "us"}
	m["fabric.get_us"] = metric{get, "us"}
	m["fabric.put_us"] = metric{put, "us"}
	return m
}

// attributed is the share of the passes' wall time that named child
// spans cover.
func attributed(spans []span) float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total, cov int64
	for _, s := range spans {
		if s.Name == "pass" {
			total += s.End - s.Start
			cov += covered(s, children[s.ID])
		}
	}
	if total == 0 {
		return 0
	}
	return float64(cov) / float64(total)
}

// fabricProbe times the benchmark's own fabric.NewKey, Store.Put and
// Store.Get calls on a payload the size of a campaign run result, and
// returns the median of each in microseconds.
func fabricProbe(dir string) (keyUS, getUS, putUS float64, err error) {
	store, err := fabric.Open(dir)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("fabric probe: %w", err)
	}
	payload := campaign.RunResult{Label: "topology=grid mode=EZ-flow side=10 rate=2e+06 flap=1", Seed: 1,
		AggKbps: 412.5, Fairness: 0.93, MeanDelaySec: 0.41, MaxQueuePkts: 50, RecoverySec: 1.5,
		FlowKbps: map[ezflow.FlowID]float64{1: 201.25, 2: 211.25}}
	keys, gets, puts := make([]float64, fabricCalls), make([]float64, fabricCalls), make([]float64, fabricCalls)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for i := 0; i < fabricCalls; i++ {
		payload.Rep = i
		t := time.Now()
		k, err := fabric.NewKey("perfbench-probe/1", payload)
		keys[i] = us(time.Since(t))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("fabric probe: %w", err)
		}
		t = time.Now()
		err = store.Put(k, payload)
		puts[i] = us(time.Since(t))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("fabric probe: %w", err)
		}
		var got campaign.RunResult
		t = time.Now()
		ok := store.Get(k, &got)
		gets[i] = us(time.Since(t))
		if !ok || got.Rep != i {
			return 0, 0, 0, fmt.Errorf("fabric probe: miss on a just-written entry")
		}
	}
	return median(keys), median(gets), median(puts), nil
}
