// Command perfbench is the repository's benchmark. It runs one named
// workload of the EZ-Flow simulator in a closed loop for a fixed host
// time, checks every run's simulated statistics against reference
// digests, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output. See README.md.
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 25 --trace 0
//
// Run it from the repository root: outputs go under .bench_build/.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// outDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const outDir = ".bench_build/perfbench"

// setupReps is how many times each invocation builds the workload's t=0
// worlds on their own; setup_s is the median of these repetitions.
const setupReps = 9

// An untraced invocation warms up (heap growth, first-touch page faults)
// for 1/warmupShare of its measuring time, and at least one pass, before
// it times anything.
const warmupShare = 20

//go:embed refs.json
var refsJSON []byte

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper|disk-400|mobile-gateway|campaign")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 25, "host seconds to keep starting passes for")
	traced := fs.Int("trace", 0, "1 records spans and a CPU profile and prints per-layer metrics")
	record := fs.Bool("record", false, "run one pass and store its digests as the seed's reference in perfbench/refs.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload paper|disk-400|mobile-gateway|campaign, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	refs, err := loadRefs(refsJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := newBench(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.storeRoot)

	if *record {
		// Merge into the file on disk: the embedded table is the one this
		// binary was built with, not the one being written.
		path := filepath.Join("perfbench", "refs.json")
		data, err := os.ReadFile(path)
		if err == nil {
			refs, err = loadRefs(data)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		ps := b.pass(nil)
		if ps.Failed > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: pass failed: %v\n", ps.Errors)
			return 1
		}
		refs.set(w.Name, *seed, ps.Digests)
		if err := writeJSON(path, refs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("recorded %s seed %d: %v\n", w.Name, *seed, ps.Digests)
		return 0
	}
	b.expect = refs.get(w.Name, *seed)

	dur := time.Duration(*seconds * float64(time.Second))
	var out result
	if *traced == 1 {
		out, err = b.traced(dur)
	} else {
		out = b.untraced(dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	stamp := hostStamp(*seed)
	doc := map[string]any{
		"host": stamp, "workload": w.Name, "trace": *traced, "result": out,
		"passes": b.passes, "pass_wall_s": b.passWalls, "pass_counts": b.counts,
		"calib_s": b.calibs, "ref_calib_s": refCalib.Seconds(), "unscaled": b.unscaled,
		"digests": b.expect, "reference": b.refSource, "errors": b.errors,
	}
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, *seed, *traced)), doc); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, e := range b.errors {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	host, _ := json.Marshal(map[string]any{"host": stamp})
	fmt.Println(string(host))
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// untraced measures the end-to-end metrics: after warm-up passes,
// setup_s from dedicated set-up repetitions, the rest from passes
// started until dur elapses. Warm-up passes are checked and counted in
// attempted and failed, but no timed figure includes them.
func (b *bench) untraced(dur time.Duration) result {
	var warmup []passStats
	start := time.Now()
	for len(warmup) == 0 || time.Since(start) < dur/warmupShare {
		warmup = append(warmup, b.pass(nil))
	}
	setups := make([]float64, setupReps)
	var setupCal []float64
	for i := range setups {
		d, cal := b.setupOnly()
		setups[i] = d.Seconds()
		setupCal = append(setupCal, cal...)
	}
	var passes []passStats
	start = time.Now()
	for len(passes) == 0 || time.Since(start) < dur {
		passes = append(passes, b.pass(nil))
	}
	res := b.tally(passes)
	for _, p := range warmup {
		res.Attempted += p.Runs
		res.Failed += p.Failed
	}
	res.Correct = res.Failed == 0
	var warm, passCal []float64 // every warm sample and pass calibration
	for _, p := range passes {
		for _, d := range p.Warm {
			warm = append(warm, d.Seconds())
		}
		passCal = append(passCal, p.Calibs...)
	}
	col := func(f func(p passStats) float64) float64 { return medianOf(passes, f) }
	b.unscaled = map[string]metric{
		"wall_s":          {col(func(p passStats) float64 { return p.Wall.Seconds() }), "s"},
		"setup_s":         {median(setups), "s"},
		"sim_rate":        {col(func(p passStats) float64 { return p.Counts.SimSeconds / p.Loop.Seconds() }), "s/s"},
		"cold_runs_per_s": {col(func(p passStats) float64 { return float64(p.ColdRuns) / p.Cold.Seconds() }), "1/s"},
		"warm_runs_per_s": {float64(passes[0].WarmRuns) / median(warm), "1/s"},
	}
	b.calibs = map[string][]float64{"passes": passCal, "setup": setupCal}
	// The calibrations are 30 ms snapshots of a host whose speed switches
	// between two levels within seconds; their mean, not their median,
	// matches the mix of levels that longer work runs through. Set-up
	// repetitions are scaled by their own calibrations: on paper they
	// take a second in all, too short to share the passes' mix.
	res.Metrics = map[string]metric{"max_rss_mb": {peakRSSMB(), "MB"}}
	for name, m := range b.unscaled {
		k := refCalib.Seconds() / mean(passCal)
		if name == "setup_s" {
			k = refCalib.Seconds() / mean(setupCal)
		}
		if m.Unit == "s" {
			m.Value *= k
		} else {
			m.Value /= k
		}
		res.Metrics[name] = m
	}
	return res
}

// traced alternates untraced and traced passes until dur elapses. The
// traced passes record spans and a CPU profile each; the untraced ones
// give the wall time the tracing overhead is measured against.
func (b *bench) traced(dur time.Duration) (result, error) {
	tag := fmt.Sprintf("%s-seed%d", b.w.Name, b.seed)
	tr := newTracer()
	var plain, passes []passStats
	var samples []stackSample
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < dur {
		plain = append(plain, b.pass(nil))
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, fmt.Errorf("cpu profile: %w", err)
		}
		passes = append(passes, b.pass(tr))
		pprof.StopCPUProfile()
		path := filepath.Join(outDir, fmt.Sprintf("%s-pass%d.pprof", tag, len(passes)))
		if err := os.WriteFile(path, prof.Bytes(), 0o644); err != nil {
			return result{}, err
		}
		s, err := decodeProfile(prof.Bytes())
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s...)
	}
	if err := writeJSON(filepath.Join(outDir, tag+".spans.json"), tr.spans); err != nil {
		return result{}, err
	}
	res := b.tally(append(plain, passes...))
	res.Metrics = b.layerMetrics(plain, passes, tr.spans, layerShares(samples))
	return res, nil
}

// tally counts runs and failures over passes.
func (b *bench) tally(passes []passStats) result {
	var r result
	for _, p := range passes {
		r.Attempted += p.Runs
		r.Failed += p.Failed
	}
	r.Correct = r.Failed == 0
	b.passes = len(passes)
	b.counts = passes[0].Counts
	for _, p := range passes {
		b.passWalls = append(b.passWalls, p.Wall.Seconds())
	}
	return r
}

// medianOf is the median of f over the passes.
func medianOf(passes []passStats, f func(p passStats) float64) float64 {
	v := make([]float64, len(passes))
	for i, p := range passes {
		v[i] = f(p)
	}
	return median(v)
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// refTable maps workload -> seed -> per-run digests of one pass.
type refTable map[string]map[string][]string

func loadRefs(data []byte) (refTable, error) {
	t := refTable{}
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return t, nil
}

func (t refTable) get(w string, seed int64) []string { return t[w][strconv.FormatInt(seed, 10)] }

func (t refTable) set(w string, seed int64, digests []string) {
	if t[w] == nil {
		t[w] = map[string][]string{}
	}
	t[w][strconv.FormatInt(seed, 10)] = digests
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
