package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "run", Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: "setup", Start: 10, End: 20},
		{ID: 3, Parent: 1, Name: "loop", Start: 15, End: 50}, // overlaps setup
		{ID: 4, Parent: 0, Name: "run", Start: 70, End: 110}, // runs past the pass
		{ID: 5, Parent: 4, Name: "loop", Start: 70, End: 80},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"pass":  100 - (50 + 30), // children cover [10,60) and [70,100)
		"run":   (50 - 40) + (40 - 10),
		"setup": 10,
		"loop":  35 + 10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	if a := attributed(spans); a != 0.8 {
		t.Errorf("attributed = %v, want 0.8", a)
	}
}

func TestCoveredEmptyAndDisjoint(t *testing.T) {
	p := span{Start: 0, End: 10}
	if c := covered(p, nil); c != 0 {
		t.Errorf("no children covered %d", c)
	}
	kids := []span{{Start: 6, End: 8}, {Start: 1, End: 2}, {Start: 20, End: 30}}
	if c := covered(p, kids); c != 3 {
		t.Errorf("covered = %d, want 3", c)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}
