package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"ezflow/internal/campaign"
	"ezflow/internal/fabric"
)

// A simulation pass times warmReplays samples of warmReads record reads
// each, cycling through its runs; the campaign pass replays its spec
// campaignWarmReplays times against the warm store. Samples of several
// reads keep a workload with one run from timing single reads.
const (
	warmReplays         = 50
	warmReads           = 8
	campaignWarmReplays = 20
)

// bench is one invocation's state: the workload's generated inputs,
// the digests every pass must reproduce, and the stores it writes.
type bench struct {
	w         workload
	seed      int64
	specs     []runSpec     // simulation workloads
	spec      campaign.Spec // campaign workload
	worlds    []runSpec     // the campaign's t=0 worlds
	parallel  int           // campaign workers
	storeRoot string
	store     *fabric.Store // warm store of the simulation workloads
	keys      []fabric.Key  // one per run of a simulation pass
	npass     int
	cal       *calibrator

	expect    []string // per-run digests every pass must reproduce
	refSource string
	errors    []string
	passes    int
	passWalls []float64            // unscaled host time of each timed pass
	unscaled  map[string]metric    // end-to-end times before host-speed scaling
	calibs    map[string][]float64 // their calibration times, by pool
	counts    counters             // of the first pass; every pass repeats them
}

func newBench(w workload, seed int64) (*bench, error) {
	b := &bench{w: w, seed: seed, parallel: min(2, runtime.NumCPU()), errors: []string{}, cal: newCalibrator()}
	b.storeRoot = filepath.Join(outDir, fmt.Sprintf("store-%d", os.Getpid()))
	if err := os.RemoveAll(b.storeRoot); err != nil {
		return nil, err
	}
	if w.Campaign != nil {
		b.spec = w.Campaign(seed)
		b.worlds = campaignWorlds(b.spec)
		return b, nil
	}
	b.specs = w.Runs(seed)
	var err error
	if b.store, err = fabric.Open(filepath.Join(b.storeRoot, "runs")); err != nil {
		return nil, err
	}
	for _, s := range b.specs {
		k, err := runKey(w.Name, seed, s.Name)
		if err != nil {
			return nil, err
		}
		b.keys = append(b.keys, k)
	}
	return b, nil
}

// runKey is the fabric key of one simulation run's record.
func runKey(workload string, seed int64, run string) (fabric.Key, error) {
	return fabric.NewKey("perfbench/1", struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Run      string `json:"run"`
	}{workload, seed, run})
}

// passStats is what one pass over the workload measured.
type passStats struct {
	Wall     time.Duration // the whole pass
	Loop     time.Duration // event loops (the campaign: its cold run)
	Phases   phases        // split points summed over runs
	Counts   counters
	Runs     int // runs attempted, warm replays included
	Failed   int
	Cold     time.Duration
	ColdRuns int
	Warm     []time.Duration // one entry per warm sample
	WarmRuns int             // runs answered by one warm sample
	Hits     uint64
	Gets     uint64
	Util     float64   // campaign worker utilisation (traced passes)
	Calibs   []float64 // seconds of the calibrations around an untraced pass

	AllocBytes    uint64
	GCCPU, AllCPU float64

	Digests  []string
	runFails []bool // per digest: already counted as failed
	Errors   []string
}

func (p *passStats) fail(format string, args ...any) {
	p.Failed++
	p.Errors = append(p.Errors, fmt.Sprintf(format, args...))
}

// pass runs the workload's whole body of work once, then checks its
// digests against the reference (or, for a seed without one, against
// the first pass of this invocation). An untraced pass is calibrated
// before and after; a traced one is not, so the calibration loop stays
// out of the CPU profile.
func (b *bench) pass(tr *tracer) passStats {
	b.npass++
	runtime.GC() // start every pass from a collected heap, untimed
	var before time.Duration
	if tr == nil {
		before = b.cal.run()
	}
	root := tr.begin("pass", -1, -1)
	alloc0, gc0, all0 := readRuntime()
	var ps passStats
	if b.w.Campaign != nil {
		ps = b.campaignPass(tr, root)
	} else {
		ps = b.simPass(tr, root)
	}
	alloc1, gc1, all1 := readRuntime()
	ps.AllocBytes, ps.GCCPU, ps.AllCPU = alloc1-alloc0, gc1-gc0, all1-all0
	tr.end(root)
	if tr == nil {
		ps.Calibs = []float64{before.Seconds(), b.cal.run().Seconds()}
	}
	b.verify(&ps)
	b.errors = append(b.errors, ps.Errors...)
	return ps
}

func (b *bench) verify(ps *passStats) {
	if b.expect == nil {
		b.expect, b.refSource = ps.Digests, "first pass (refs.json has no entry for this seed)"
		return
	}
	if b.refSource == "" {
		b.refSource = "refs.json"
	}
	for i, d := range ps.Digests {
		if ps.runFails[i] {
			continue
		}
		if i >= len(b.expect) || d != b.expect[i] {
			n := 1
			if b.w.Campaign != nil {
				n = ps.ColdRuns
			}
			ps.Failed += n
			ps.Errors = append(ps.Errors, fmt.Sprintf("pass %d: digest %d is %s, want %v", b.npass, i, d, b.expect))
		}
	}
}

func (b *bench) simPass(tr *tracer, root int) passStats {
	var ps passStats
	start := time.Now()
	recs := make([]runRecord, len(b.specs))
	failed := false
	for i, spec := range b.specs {
		rec := execRun(spec, tr, root, i)
		recs[i] = rec
		ps.Runs++
		ps.Phases.add(rec.Phases)
		ps.Counts.add(rec.Counts)
		ps.Digests = append(ps.Digests, rec.Digest)
		ps.runFails = append(ps.runFails, rec.Failure != "")
		if rec.Failure != "" {
			failed = true
			ps.fail("pass %d: run %s panicked: %s", b.npass, rec.Name, rec.Failure)
		}
	}
	ps.Wall = time.Since(start)
	ps.Loop = ps.Phases.Loop
	ps.Cold, ps.ColdRuns = ps.Wall, len(recs)
	if b.w.Check != nil && !failed {
		if err := b.w.Check(recs); err != nil {
			ps.fail("pass %d: %v", b.npass, err)
		}
	}

	// Warm store: put every run's record, then read them all back.
	s := tr.begin("fabric.Store.Put", root, -1)
	for i, rec := range recs {
		if err := b.store.Put(b.keys[i], runEntry{rec.Name, rec.Digest}); err != nil {
			ps.fail("pass %d: store put: %v", b.npass, err)
		}
	}
	tr.end(s)
	collect(tr, root)
	s = tr.begin("fabric.warm", root, -1)
	ps.WarmRuns = warmReads
	for r := 0; r < warmReplays; r++ {
		t := time.Now()
		for j := 0; j < warmReads; j++ {
			i := j % len(recs)
			rec := recs[i]
			k, err := runKey(b.w.Name, b.seed, rec.Name)
			var e runEntry
			ps.Gets++
			ps.Runs++
			if err == nil && b.store.Get(k, &e) && e.Digest == rec.Digest && k == b.keys[i] {
				ps.Hits++
			} else {
				ps.fail("pass %d: warm replay of %s missed", b.npass, rec.Name)
			}
		}
		ps.Warm = append(ps.Warm, time.Since(t))
	}
	tr.end(s)
	return ps
}

// collect runs a garbage collection so the warm replays start from a
// collected heap; no timed figure includes it.
func collect(tr *tracer, parent int) {
	s := tr.begin("runtime.GC", parent, -1)
	runtime.GC()
	tr.end(s)
}

// runEntry is a simulation run's record in the warm store.
type runEntry struct {
	Run    string `json:"run"`
	Digest string `json:"digest"`
}

func (b *bench) campaignPass(tr *tracer, root int) passStats {
	var ps passStats
	start := time.Now()
	s := tr.begin("campaign.worlds", root, -1)
	for i, w := range b.worlds {
		_, ph := buildWorld(w, tr, s, i)
		ps.Phases.add(ph)
	}
	worlds := time.Since(start)
	tr.end(s)

	dir := filepath.Join(b.storeRoot, fmt.Sprintf("campaign-%d", b.npass))
	defer os.RemoveAll(dir)
	store, err := fabric.Open(dir)
	if err != nil {
		ps.fail("pass %d: open store: %v", b.npass, err)
		ps.Digests, ps.runFails = []string{"no store"}, []bool{true}
		return ps
	}
	var active atomic.Int64
	eng := &campaign.Engine{Parallel: b.parallel, Cache: store, RunActive: &active}
	var stopSampling func() float64
	if tr != nil {
		stopSampling = sampleUtil(&active, b.parallel)
	}
	s = tr.begin("campaign.Engine.Run/cold", root, -1)
	t := time.Now()
	cold, err := eng.Run(b.spec)
	ps.Cold = time.Since(t)
	tr.end(s)
	if stopSampling != nil {
		ps.Util = stopSampling()
	}
	if err != nil {
		ps.fail("pass %d: cold campaign: %v", b.npass, err)
		ps.Digests, ps.runFails = []string{"cold failed"}, []bool{true}
		return ps
	}
	coldJSON, err := json.Marshal(cold)
	if err != nil {
		panic(err) // campaign results are plain data
	}
	ps.Digests = []string{shortHash(coldJSON)}
	ps.ColdRuns = len(cold.Runs)
	ps.Runs += len(cold.Runs)
	ps.Loop = ps.Cold
	ps.Counts.SimSeconds = float64(len(cold.Runs)) * b.spec.DurationSec
	failedRuns := 0
	for _, r := range cold.Runs {
		if r.Failed {
			failedRuns++
			ps.fail("pass %d: campaign run %s/%d failed: %s", b.npass, r.Label, r.Rep, r.Error)
		}
	}
	ps.runFails = []bool{failedRuns > 0}
	collect(tr, root)

	for r := 0; r < campaignWarmReplays; r++ {
		weng := &campaign.Engine{Parallel: b.parallel, Cache: store}
		s = tr.begin("campaign.Engine.Run/warm", root, -1)
		t = time.Now()
		warm, err := weng.Run(b.spec)
		ps.Warm = append(ps.Warm, time.Since(t))
		tr.end(s)
		if err != nil {
			ps.fail("pass %d: warm campaign: %v", b.npass, err)
			continue
		}
		ps.Runs += len(warm.Runs)
		ps.WarmRuns = len(warm.Runs)
		cs := weng.CacheStats()
		ps.Hits += cs.Hits
		ps.Gets += cs.Hits + cs.Misses
		if j, _ := json.Marshal(warm); !bytes.Equal(j, coldJSON) {
			ps.Failed += len(warm.Runs)
			ps.Errors = append(ps.Errors, fmt.Sprintf("pass %d: warm replay differs from the cold result", b.npass))
		}
	}
	ps.Wall = worlds + ps.Cold
	for _, d := range ps.Warm {
		ps.Wall += d
	}
	return ps
}

// sampleUtil samples the engine's active-run gauge every millisecond
// until the returned function is called; that function stops the
// sampler, waits for it, and returns the mean busy share of the slots.
func sampleUtil(active *atomic.Int64, slots int) func() float64 {
	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var sum, n float64
		for {
			select {
			case <-stop:
				if n == 0 {
					done <- 0
				} else {
					done <- sum / n / float64(slots)
				}
				return
			case <-tick.C:
				sum += float64(active.Load())
				n++
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// setupOnly builds every t=0 world of one pass and discards them,
// returning the summed set-up time and the seconds of the calibrations
// just before and after the builds.
func (b *bench) setupOnly() (time.Duration, []float64) {
	specs := b.specs
	if b.w.Campaign != nil {
		specs = b.worlds
	}
	runtime.GC()
	before := b.cal.run()
	var total time.Duration
	for i, s := range specs {
		_, ph := buildWorld(s, nil, -1, i)
		total += ph.Setup()
	}
	return total, []float64{before.Seconds(), b.cal.run().Seconds()}
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readRuntime reads cumulative heap allocation and GC / total CPU time.
func readRuntime() (alloc uint64, gcCPU, allCPU float64) {
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Float64(), runtimeSamples[2].Value.Float64()
}
