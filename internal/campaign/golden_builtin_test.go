package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenBuiltinSpecs are the built-in-topology golden campaigns: every
// topology under every head-to-head controller with and without each
// fault axis, plus a mobility/workload row over the generated
// topologies. No scenario file is attached, so these pin the path that
// turns a bare Point into a run.
func goldenBuiltinSpecs() []Spec {
	sweep := func(axes ...string) []Axis {
		var out []Axis
		for _, a := range axes {
			ax, err := ParseSweep(a)
			if err != nil {
				panic(err)
			}
			out = append(out, ax)
		}
		return out
	}
	return []Spec{
		{
			Name: "golden-builtin",
			Axes: sweep("topology=chain,testbed,scenario1,scenario2,tree,grid,random",
				"controller=802.11,ezflow,penalty,diffq,backpressure", "flap=0,1", "churn=0,1"),
			Reps: 1, BaseSeed: 23, DurationSec: 20,
		},
		{
			Name: "golden-builtin-mobile",
			Axes: sweep("topology=chain,grid,random", "mobility=off,waypoint", "speed=3",
				"pause=1", "clients=4", "mode=802.11,ezflow"),
			Reps: 1, BaseSeed: 29, DurationSec: 20,
		},
	}
}

// runGoldenBuiltin executes both built-in golden campaigns and returns
// their concatenated JSON and CSV sink outputs.
func runGoldenBuiltin(t *testing.T, parallel int) (js, cs []byte) {
	t.Helper()
	var jb, cb bytes.Buffer
	for _, spec := range goldenBuiltinSpecs() {
		eng := Engine{Parallel: parallel}
		res, err := eng.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := (JSONSink{W: &jb}).Emit(res); err != nil {
			t.Fatal(err)
		}
		if err := (CSVSink{W: &cb}).Emit(res); err != nil {
			t.Fatal(err)
		}
	}
	return jb.Bytes(), cb.Bytes()
}

// TestGoldenBuiltinCampaigns pins built-in-topology campaign output
// byte for byte. Regenerate (only after an intentional behaviour
// change) with
//
//	EZFLOW_UPDATE_GOLDEN=1 go test ./internal/campaign -run Golden
func TestGoldenBuiltinCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	jsonPath := filepath.Join("testdata", "golden_builtin.json")
	csvPath := filepath.Join("testdata", "golden_builtin.csv")
	if os.Getenv("EZFLOW_UPDATE_GOLDEN") != "" {
		js, cs := runGoldenBuiltin(t, 1)
		if err := os.WriteFile(jsonPath, js, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(csvPath, cs, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantJSON, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	js, cs := runGoldenBuiltin(t, 2)
	if !bytes.Equal(js, wantJSON) {
		t.Errorf("JSON diverges from golden %s", jsonPath)
	}
	if !bytes.Equal(cs, wantCSV) {
		t.Errorf("CSV diverges from golden %s", csvPath)
	}
}
