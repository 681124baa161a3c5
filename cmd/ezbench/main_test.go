package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for ezbench: with EZBENCH_MAIN
// set it runs main on its own arguments, so the tests below drive the
// real flag parsing and exit paths.
func TestMain(m *testing.M) {
	if os.Getenv("EZBENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ezbench runs the command with args and returns its stdout and stderr
// and whether it exited cleanly.
func ezbench(t *testing.T, args ...string) (stdout, stderr string, ok bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EZBENCH_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if _, exit := err.(*exec.ExitError); err != nil && !exit {
		t.Fatal(err)
	}
	return out.String(), errb.String(), err == nil
}

// TestUnknownExperiment checks a typo'd -exp name exits non-zero with one
// error line naming it, and prints no report.
func TestUnknownExperiment(t *testing.T) {
	stdout, stderr, ok := ezbench(t, "-exp", "fig1,warp")
	if ok || stdout != "" || stderr != "ezbench: no experiment matched \"warp\"\n" {
		t.Errorf("ok=%v stdout=%q stderr=%q, want one no-match error line", ok, stdout, stderr)
	}
}

// TestSmallestExperimentHeader runs the cheapest experiment (Figure 1 at
// 1% of the paper's duration) through its alias and pins the report
// header and layout: the title line, one buffer line per relay of the
// 3-hop and 4-hop chains, and the trailing blank line between reports.
func TestSmallestExperimentHeader(t *testing.T) {
	stdout, stderr, ok := ezbench(t, "-scale", "0.01", "-exp", "FIG1", "-parallel", "1")
	if !ok || stderr != "" {
		t.Fatalf("ok=%v stderr=%q", ok, stderr)
	}
	lines := strings.Split(stdout, "\n")
	const header = "=== Figure 1: buffer evolution, 3-hop vs 4-hop, plain 802.11 ==="
	if lines[0] != header {
		t.Errorf("header = %q, want %q", lines[0], header)
	}
	if !strings.HasSuffix(stdout, "\n\n") {
		t.Errorf("report does not end with a blank line: %q", stdout)
	}
	for _, prefix := range []string{"3-hop: throughput ", "4-hop: throughput ", "paper shape: "} {
		if !strings.Contains(stdout, "\n"+prefix) {
			t.Errorf("no %q line in\n%s", prefix, stdout)
		}
	}
	if got := strings.Count(stdout, "  node "); got != 5 {
		t.Errorf("%d relay buffer lines, want 5 (2 for 3 hops, 3 for 4)\n%s", got, stdout)
	}
}
