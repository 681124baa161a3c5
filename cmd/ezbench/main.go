// Command ezbench regenerates every table and figure of the paper's
// evaluation in one run and prints each as a report: Figure 1, Table 1,
// Figure 4 + Table 2, Scenario 1 (Figures 6-8), Scenario 2 (Figures 10-11 +
// Table 3), and the §6 Theorem 1 random-walk analysis — plus the
// extension experiments (hopsweep, tree, rtscts, bidir, the
// fault-injection stability experiment, the large-topology scale sweep,
// the congestion-controller head-to-head `-exp controllers`, the
// routing-strategy cross product on lossy disks `-exp routing`, and the
// mobility head-to-head on moving meshes with client workloads
// `-exp mobility`; see docs/PAPER_MAP.md).
//
// Usage:
//
//	ezbench                    # all experiments at 1/4 paper durations
//	ezbench -scale 1           # full paper durations (slow)
//	ezbench -exp fig1,table1   # a subset
//	ezbench -parallel 8        # fan each experiment's runs over 8 workers
//	ezbench -exp scale -cpuprofile cpu.pprof -memprofile mem.pprof
//	                           # profile an experiment (see `make profile`)
//	ezbench -exp controllers,routing -cache
//	                           # warm the fabric result store (internal/fabric);
//	                           # the rerun replays every cell from cache and
//	                           # prints `cache: X hit / Y miss`
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"ezflow"
	"ezflow/internal/buildinfo"
	"ezflow/internal/exp"
	"ezflow/internal/fabric"
	"ezflow/internal/obs"
)

// experimentNames renders the registered experiment list for the -exp
// usage string, so help text can never drift from the table above.
func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ",")
}

var experiments = []struct {
	name string
	run  func(exp.Options) *exp.Report
}{
	{"fig1", func(o exp.Options) *exp.Report { return &exp.Fig1(o).Report }},
	{"table1", func(o exp.Options) *exp.Report { return &exp.Table1(o).Report }},
	{"fig4", func(o exp.Options) *exp.Report { return &exp.Fig4Table2(o).Report }},
	{"scenario1", func(o exp.Options) *exp.Report { return &exp.Scenario1(o).Report }},
	{"scenario2", func(o exp.Options) *exp.Report { return &exp.Scenario2(o).Report }},
	{"theorem1", func(o exp.Options) *exp.Report { return &exp.Theorem1(o).Report }},
	{"hopsweep", func(o exp.Options) *exp.Report { return &exp.HopSweep(o).Report }},
	{"tree", func(o exp.Options) *exp.Report { return &exp.TreeDownlink(o, 3, 2).Report }},
	{"rtscts", func(o exp.Options) *exp.Report { return &exp.RTSCTS(o).Report }},
	{"bidir", func(o exp.Options) *exp.Report { return &exp.Bidirectional(o).Report }},
	{"stability", func(o exp.Options) *exp.Report { return &exp.Stability(o).Report }},
	{"scale", func(o exp.Options) *exp.Report { return &exp.Scale(o).Report }},
	{"controllers", func(o exp.Options) *exp.Report { return &exp.Controllers(o).Report }},
	{"routing", func(o exp.Options) *exp.Report { return &exp.Routing(o).Report }},
	{"mobility", func(o exp.Options) *exp.Report { return &exp.Mobility(o).Report }},
}

// aliases lets users name experiments by the figure/table they regenerate.
var aliases = map[string]string{
	"table2": "fig4", "fig6": "scenario1", "fig7": "scenario1",
	"fig8": "scenario1", "fig10": "scenario2", "fig11": "scenario2",
	"table3": "scenario2", "fig12": "theorem1", "table4": "theorem1",
}

func main() {
	var (
		seed       = flag.Int64("seed", 1, "random seed")
		scale      = flag.Float64("scale", 0.25, "duration scale (1 = paper durations)")
		which      = flag.String("exp", "", "comma-separated subset ("+experimentNames()+" or figure/table aliases); controllers runs the congestion-controller head-to-head over the registry ("+ezflow.Controllers.List()+")")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "max scenario runs in flight per experiment (results are identical for any value)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU pprof profile of the selected experiments to this file")
		memprofile = flag.String("memprofile", "", "write an allocation pprof profile (after the run) to this file")
		cache      = flag.Bool("cache", false, "consult and fill the content-addressed result store at -cache-dir (used by the controllers and routing head-to-heads)")
		cacheDir   = flag.String("cache-dir", "fabric-cache", "fabric store directory, shared with ezcampaign -cache (setting it implies -cache)")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("ezbench " + buildinfo.String())
		return
	}
	useCache := *cache
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "cache-dir" {
			useCache = true
		}
	})

	// Resolve and validate the experiment selection before any profiling
	// starts: exiting on a typo'd name must not leave a truncated
	// cpu.pprof behind (os.Exit skips the deferred StopCPUProfile).
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.name] = true
	}
	want := map[string]bool{}
	if *which != "" {
		for _, w := range strings.Split(*which, ",") {
			w = strings.TrimSpace(strings.ToLower(w))
			if a, ok := aliases[w]; ok {
				w = a
			}
			if !known[w] {
				fmt.Fprintf(os.Stderr, "ezbench: no experiment matched %q\n", w)
				os.Exit(1)
			}
			want[w] = true
		}
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ezbench: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "ezbench: %v\n", err)
		}
	}()

	o := exp.Options{Seed: *seed, Scale: *scale, Parallel: *parallel}
	var store *fabric.Store
	if useCache {
		store, err = fabric.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ezbench: %v\n", err)
			os.Exit(1)
		}
		o.Cache = store
	}
	for _, e := range experiments {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		fmt.Print(e.run(o).String())
		fmt.Println()
	}
	if store != nil {
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hit / %d miss\n", st.Hits, st.Misses)
	}
}
