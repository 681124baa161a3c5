package phy

import (
	"math"
	"testing"

	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// newIndexedChannel builds a channel over the given positions and forces
// the neighbor index (normally built by the first transmission).
func newIndexedChannel(t *testing.T, pos []Position) *Channel {
	t.Helper()
	eng := sim.NewEngine(1)
	ch := NewChannel(eng, DefaultConfig())
	for i, p := range pos {
		ch.AddNode(pkt.NodeID(i), p, nil)
	}
	ch.buildIndex()
	return ch
}

// TestNeighborIndexMatchesBruteForce checks every cached record of a
// random-disk layout against a direct O(N²) recomputation: membership
// (exactly the pairs within interference range), order (ascending slot),
// and the cached power and range predicates, which must be bit-identical
// to the closed-form model — the hot path substitutes these values for
// live math.Hypot/math.Pow calls.
func TestNeighborIndexMatchesBruteForce(t *testing.T) {
	pos := diskPositions(120, 7)
	ch := newIndexedChannel(t, pos)
	r := ch.cfg.interferenceRange()
	for i, st := range ch.order {
		if st.slot != int32(i) {
			t.Fatalf("station %d has slot %d", i, st.slot)
		}
		want := 0
		prev := int32(-1)
		for j := range ch.order {
			d := pos[i].Dist(pos[j])
			if j == i || d > r {
				if lk := st.neighbor(int32(j)); lk != nil && j != i {
					t.Errorf("N%d lists N%d (d=%.1f) beyond interference range %.1f", i, j, d, r)
				}
				continue
			}
			want++
			lk := st.neighbor(int32(j))
			if lk == nil {
				t.Fatalf("N%d missing neighbor N%d at d=%.1f (range %.1f)", i, j, d, r)
			}
			if lk.power != ch.cfg.power(d) {
				t.Errorf("N%d->N%d cached power %v != %v", i, j, lk.power, ch.cfg.power(d))
			}
			if lk.inCS != (d <= ch.cfg.CSRange) || lk.inTx != (d <= ch.cfg.TxRange) {
				t.Errorf("N%d->N%d range flags inCS=%v inTx=%v at d=%.1f", i, j, lk.inCS, lk.inTx, d)
			}
			if lk.slot <= prev {
				t.Errorf("N%d neighbor list not ascending at slot %d", i, lk.slot)
			}
			prev = lk.slot
		}
		if len(st.nbrs) != want {
			t.Errorf("N%d has %d neighbors, want %d", i, len(st.nbrs), want)
		}
		// csNbrs must index exactly the in-CS subsequence.
		cs := 0
		for k := range st.nbrs {
			if st.nbrs[k].inCS {
				if cs >= len(st.csNbrs) || st.csNbrs[cs] != int32(k) {
					t.Fatalf("N%d csNbrs misses entry %d", i, k)
				}
				cs++
			}
		}
		if cs != len(st.csNbrs) {
			t.Errorf("N%d csNbrs has %d extra entries", i, len(st.csNbrs)-cs)
		}
	}
}

// TestInterferenceRangeCoversCorruption verifies the index radius bound:
// an interferer just inside the radius can still corrupt the weakest
// lockable signal, and one beyond it never can (the condition the hot
// path's "skip non-neighbors" shortcut relies on).
func TestInterferenceRangeCoversCorruption(t *testing.T) {
	cfg := DefaultConfig()
	r := cfg.interferenceRange()
	weakest := cfg.power(cfg.CSRange)
	if p := cfg.power(r * 1.0001); weakest < cfg.CaptureRatio*p {
		t.Errorf("interferer beyond range %v would corrupt: %v < %v", r, weakest, cfg.CaptureRatio*p)
	}
	if p := cfg.power(r * 0.95); weakest >= cfg.CaptureRatio*p {
		t.Errorf("interferer inside range %v cannot corrupt: %v >= %v", r, weakest, cfg.CaptureRatio*p)
	}
	if inf := (Config{CSRange: 550, PathLossExp: 0}).interferenceRange(); !math.IsInf(inf, 1) {
		t.Errorf("degenerate path-loss exponent should disable pruning, got %v", inf)
	}
}

// TestIndexPatchOnLinkMutation checks the invalidation hooks: SetLinkLoss
// and SetLinkDown applied after the index is built must patch the cached
// record in place (the hot path reads only the record), and the maps stay
// authoritative for the build.
func TestIndexPatchOnLinkMutation(t *testing.T) {
	ch := newIndexedChannel(t, chainPositions(6))
	st := ch.station(0)

	ch.SetLinkLoss(0, 1, 0.25)
	if lk := st.neighbor(1); lk.loss != 0.25 {
		t.Errorf("cached loss %v after SetLinkLoss, want 0.25", lk.loss)
	}
	ch.SetLinkDown(0, 1, true)
	if lk := st.neighbor(1); !lk.down {
		t.Error("cached record not severed after SetLinkDown")
	}
	ch.SetLinkDown(0, 1, false)
	if lk := st.neighbor(1); lk.down {
		t.Error("cached record still severed after restore")
	}

	// Mutations targeting pairs beyond interference range only touch the
	// maps (no cached record exists, none is needed for delivery).
	ch.SetLinkLoss(0, 5, 0.5)
	if lk := st.neighbor(5); lk != nil {
		t.Fatalf("N0 unexpectedly lists N5 (1000 m apart, range %.0f)", ch.cfg.interferenceRange())
	}
	if got := ch.LinkLoss(0, 5); got != 0.5 {
		t.Errorf("map loss %v, want 0.5", got)
	}

	// State set before the one build is folded into the records.
	eng := sim.NewEngine(1)
	ch = NewChannel(eng, DefaultConfig())
	for i, p := range chainPositions(6) {
		ch.AddNode(pkt.NodeID(i), p, nil)
	}
	ch.SetLinkLoss(0, 2, 0.75)
	ch.SetLinkDown(2, 0, true)
	if ch.indexed {
		t.Fatal("link mutations built the index")
	}
	ch.BuildIndex()
	if lk := ch.station(0).neighbor(2); lk == nil || lk.loss != 0.75 || lk.down {
		t.Errorf("build lost the configured loss: %+v", lk)
	}
	if lk := ch.station(2).neighbor(0); lk == nil || !lk.down || lk.loss != 0 {
		t.Errorf("build lost the severed link: %+v", lk)
	}
}

// TestAddNodeAfterBuildPanics pins the index lifecycle: stations join
// only before the one build, so a station added afterwards panics instead
// of renumbering the slots of live event state.
func TestAddNodeAfterBuildPanics(t *testing.T) {
	ch := newIndexedChannel(t, chainPositions(3))
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode after the index build must panic")
		}
	}()
	ch.AddNode(pkt.NodeID(9), Position{X: -5000}, nil)
}

// TestTxBeyondCSRangePanics pins the config check: a decode range beyond
// carrier-sense range would admit links no receiver ever locks onto.
func TestTxBeyondCSRangePanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxRange = cfg.CSRange + 1
	defer func() {
		if recover() == nil {
			t.Fatal("NewChannel with TxRange > CSRange must panic")
		}
	}()
	NewChannel(sim.NewEngine(1), cfg)
}

// TestSpatialGridNearSuperset checks the grid's contract: Near must
// return a superset of the positions within the query radius, for probes
// inside and outside the built extent.
func TestSpatialGridNearSuperset(t *testing.T) {
	pos := diskPositions(80, 3)
	const radius = 400.0
	g := NewSpatialGrid(pos, radius)
	probes := append([]Position{{X: 1e5, Y: -1e5}, {X: 0, Y: 0}}, pos[:10]...)
	for _, p := range probes {
		got := map[int32]bool{}
		for _, i := range g.Near(p, nil) {
			got[i] = true
		}
		for i, q := range pos {
			if p.Dist(q) <= radius && !got[int32(i)] {
				t.Fatalf("Near(%v) misses index %d at distance %.1f", p, i, p.Dist(q))
			}
		}
	}
}
