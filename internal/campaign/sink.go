package campaign

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"ezflow"
)

// Sink consumes a completed campaign. Sinks receive the result after
// every run has finished, with points and runs in deterministic grid
// order, so implementations need no synchronisation.
type Sink interface {
	Emit(*Result) error
}

// ReportSink renders the human-readable per-point summary table.
type ReportSink struct {
	W io.Writer
}

// Emit writes the report.
func (s ReportSink) Emit(r *Result) error {
	name := r.Spec.Name
	if name == "" {
		name = "campaign"
	}
	reps, _ := r.Spec.effective()
	if _, err := fmt.Fprintf(s.W, "=== %s ===\n%d points x %d reps = %d runs",
		name, len(r.Points), reps, len(r.Runs)); err != nil {
		return err
	}
	if r.Elapsed > 0 {
		fmt.Fprintf(s.W, " in %.1fs wall clock", r.Elapsed.Seconds())
	}
	fmt.Fprintln(s.W)
	for _, a := range r.Points {
		fmt.Fprintf(s.W, "%s\n", a.Label)
		fmt.Fprintf(s.W, "  agg %8.1f ± %5.1f kb/s (std %5.1f)   FI %.3f ± %.3f\n",
			a.AggKbps.Mean, a.AggKbps.CI95, a.AggKbps.Std,
			a.Fairness.Mean, a.Fairness.CI95)
		fmt.Fprintf(s.W, "  delay %6.2f ± %.2fs   max queue %5.1f ± %4.1f pkts   bins %6.1f ± %5.1f kb/s\n",
			a.MeanDelaySec.Mean, a.MeanDelaySec.CI95,
			a.MaxQueuePkts.Mean, a.MaxQueuePkts.CI95,
			a.BinKbps.Mean, a.BinKbps.CI95)
		if a.TailQueuePkts.N > 0 {
			fmt.Fprintf(s.W, "  recovery %5.1f ± %4.1fs (%d/%d recovered)   tail queue %5.1f ± %4.1f pkts\n",
				a.RecoverySec.Mean, a.RecoverySec.CI95,
				a.RecoverySec.N, a.TailQueuePkts.N,
				a.TailQueuePkts.Mean, a.TailQueuePkts.CI95)
		}
		if a.FailedRuns > 0 {
			fmt.Fprintf(s.W, "  FAILED %d/%d runs (excluded from aggregates)\n",
				a.FailedRuns, reps)
		}
	}
	return nil
}

// JSONSink serialises the full result (spec, aggregates, replications)
// as indented JSON. Output contains no wall-clock data, so it is
// byte-identical across worker counts and re-runs.
type JSONSink struct {
	W io.Writer
}

// Emit writes the JSON document.
func (s JSONSink) Emit(r *Result) error {
	enc := json.NewEncoder(s.W)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CSVSink writes one row per replication — the long-format table that
// feeds external plotting and statistics tooling.
type CSVSink struct {
	W io.Writer
}

// Emit writes the CSV table.
func (s CSVSink) Emit(r *Result) error {
	w := csv.NewWriter(s.W)
	if err := w.Write([]string{
		"point", "label", "rep", "seed",
		"agg_kbps", "fairness", "mean_delay_sec", "max_queue_pkts",
		"recovery_sec", "tail_queue_pkts", "flow_kbps", "failed_runs",
	}); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, run := range r.Runs {
		var flows []int
		for f := range run.FlowKbps {
			flows = append(flows, int(f))
		}
		sort.Ints(flows)
		flowCol := ""
		for i, f := range flows {
			if i > 0 {
				flowCol += ";"
			}
			flowCol += fmt.Sprintf("%d=%s", f, g(run.FlowKbps[ezflow.FlowID(f)]))
		}
		failed := "0"
		if run.Failed {
			failed = "1"
		}
		if err := w.Write([]string{
			strconv.Itoa(run.Point), run.Label, strconv.Itoa(run.Rep),
			strconv.FormatInt(run.Seed, 10),
			g(run.AggKbps), g(run.Fairness), g(run.MeanDelaySec), g(run.MaxQueuePkts),
			g(run.RecoverySec), g(run.TailQueuePkts),
			flowCol, failed,
		}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
