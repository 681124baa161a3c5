package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for ezsim: with EZSIM_MAIN set
// it runs main on its own arguments, so the pins below drive the real
// flag parsing and exit paths.
func TestMain(m *testing.M) {
	if os.Getenv("EZSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ezsim runs the command with args and returns its stdout and stderr
// and whether it exited cleanly.
func ezsim(t *testing.T, args ...string) (stdout, stderr string, ok bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EZSIM_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if _, exit := err.(*exec.ExitError); err != nil && !exit {
		t.Fatal(err)
	}
	return out.String(), errb.String(), err == nil
}

const (
	linkfailure = "../../examples/linkfailure/linkfailure.json"
	waypoint    = "../../examples/mobility/waypoint.json"
)

// pinCases are the ezsim invocations whose output is pinned: built-in
// topologies under each flag family, and scenario files under each
// override.
var pinCases = [][]string{
	{"-duration", "20"},
	{"-topology", "chain", "-hops", "3", "-duration", "20", "-controller", "backpressure"},
	{"-topology", "testbed", "-mode", "802.11", "-cap", "1024", "-duration", "20"},
	{"-topology", "scenario1", "-controller", "ezflow", "-routing", "etx", "-duration", "20"},
	{"-topology", "scenario2", "-mode", "penalty", "-q", "0.05", "-duration", "20"},
	{"-topology", "tree", "-controller", "diffq", "-rate", "5e5", "-duration", "20"},
	{"-topology", "grid", "-grid-w", "3", "-grid-h", "3", "-mobility", "waypoint", "-speed", "3",
		"-pause", "1", "-clients", "4", "-seed", "5", "-duration", "20"},
	{"-topology", "grid", "-grid-w", "1", "-grid-h", "4", "-rate", "1e6", "-duration", "20"},
	{"-topology", "random", "-nodes", "10", "-edge-loss", "0.3", "-routing", "etx", "-seed", "3", "-duration", "20"},
	{"-topology", "random", "-nodes", "14", "-radius", "300", "-controller", "802.11", "-duration", "20"},
	{"-scenario", linkfailure, "-duration", "300", "-mode", "802.11", "-seed", "7"},
	{"-scenario", linkfailure, "-duration", "300", "-controller", "feedback", "-routing", "etx", "-cap", "512"},
	{"-scenario", linkfailure, "-duration", "300", "-mobility", "waypoint", "-speed", "2", "-clients", "2"},
	{"-scenario", waypoint, "-duration", "30", "-mobility", "off"},
	{"-scenario", waypoint, "-duration", "30", "-speed", "6", "-pause", "0.5", "-clients", "3"},
	{"-scenario", waypoint, "-duration", "30", "-controller", "802.11"},
}

// TestOutputPins pins ezsim's stdout byte for byte for every pin case.
// Regenerate (only after an intentional behaviour change) with
//
//	EZFLOW_UPDATE_GOLDEN=1 go test ./cmd/ezsim -run Pins
func TestOutputPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	var got bytes.Buffer
	for _, args := range pinCases {
		out, stderr, ok := ezsim(t, args...)
		if !ok {
			t.Fatalf("ezsim %s failed: %s", strings.Join(args, " "), stderr)
		}
		got.WriteString("== ezsim " + strings.Join(args, " ") + "\n" + out)
	}
	path := filepath.Join("testdata", "pins.golden")
	if os.Getenv("EZFLOW_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("ezsim output diverges from %s:\n%s", path, got.String())
	}
}

// TestScenarioFileFlags covers the flags a scenario file run honours or
// rejects: -q reaches the penalty controller, and topology flags
// conflict with the file's fixed topology.
func TestScenarioFileFlags(t *testing.T) {
	base := []string{"-scenario", linkfailure, "-duration", "300", "-mode", "penalty"}
	plain, stderr, ok := ezsim(t, base...)
	if !ok {
		t.Fatalf("ezsim %v: %s", base, stderr)
	}
	tuned, stderr, ok := ezsim(t, append(base, "-q", "0.5")...)
	if !ok {
		t.Fatalf("ezsim -q: %s", stderr)
	}
	if plain == tuned {
		t.Error("-q had no effect on a scenario file run")
	}
	for _, args := range [][]string{{"-topology", "grid"}, {"-hops", "3"}, {"-nodes", "20"}, {"-edge-loss", "0.1"}} {
		_, stderr, ok := ezsim(t, append([]string{"-scenario", linkfailure}, args...)...)
		if ok || !strings.Contains(stderr, "conflicts with -scenario") {
			t.Errorf("ezsim -scenario %v: ok=%v stderr=%q, want a topology conflict", args, ok, stderr)
		}
	}
}

// TestBadFlags checks invalid settings exit with one error line.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-controller", "warp"},
		{"-routing", "teleport"},
		{"-mobility", "hover"},
		{"-speed", "3"},
		{"-topology", "torus"},
		{"-topology", "random", "-nodes", "1"},
		{"-topology", "grid", "-grid-w", "1", "-grid-h", "1"},
		{"-topology", "chain", "-hops", "5000"},
		{"-clients", "0"},
		{"-duration", "-1"},
	} {
		_, stderr, ok := ezsim(t, args...)
		if ok || !strings.HasPrefix(stderr, "ezsim: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("ezsim %v: ok=%v stderr=%q, want one ezsim: error line", args, ok, stderr)
		}
	}
}
