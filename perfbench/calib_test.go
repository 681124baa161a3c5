package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestCalibHeapSorts(t *testing.T) {
	in := []uint64{9, 3, 7, 3, 0, 12, 5, 1, 8}
	var h []uint64
	for _, x := range in {
		h = heapPush(h, x)
	}
	var out []uint64
	for len(h) > 0 {
		out = append(out, h[0])
		h = heapPop(h)
	}
	want := slices.Clone(in)
	slices.Sort(want)
	if !slices.Equal(out, want) {
		t.Fatalf("heap order %v, want %v", out, want)
	}
}

// TestUntracedScaling checks that each end-to-end time is its unscaled
// median times refCalib over the mean calibration time of its pool, and
// each rate the unscaled rate divided by the same factor.
func TestUntracedScaling(t *testing.T) {
	t.Chdir(t.TempDir())
	b, err := newBench(workload{Name: "tiny", Runs: tinyRuns}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := b.untraced(time.Nanosecond)
	if !res.Correct {
		t.Fatalf("untraced tiny run: %v", b.errors)
	}
	if n := len(b.calibs["setup"]); n != 2*setupReps {
		t.Fatalf("%d set-up calibrations, want %d", n, 2*setupReps)
	}
	if n := len(b.calibs["passes"]); n != 2*b.passes {
		t.Fatalf("%d pass calibrations for %d passes", n, b.passes)
	}
	for name, raw := range b.unscaled {
		pool := "passes"
		if name == "setup_s" {
			pool = "setup"
		}
		k := refCalib.Seconds() / mean(b.calibs[pool])
		want := raw.Value / k
		if raw.Unit == "s" {
			want = raw.Value * k
		}
		if got := res.Metrics[name].Value; math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s = %v, want %v (unscaled %v, factor %v)", name, got, want, raw.Value, k)
		}
	}
}
