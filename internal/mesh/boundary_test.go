package mesh

import (
	"fmt"
	"math"
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/routing"
	"ezflow/internal/sim"
)

// TestNeighborBoundaries is a differential test of every consumer of the
// "who is within r of whom" relation at its float boundaries: stations
// exactly TxRange, CSRange and the interference radius apart (and one ulp
// beyond), stations exactly on spatial-grid cell edges, and an extent wide
// enough to coarsen the grid past its per-axis cell cap. It then moves a
// station across each of those boundaries. The PHY index is checked
// against its all-pairs oracle (VerifyIndex) after the build and after
// every move; routing.GatewayTree and ApplyEdgeLoss are checked against
// all-pairs references kept in this file.
func TestNeighborBoundaries(t *testing.T) {
	cfg := phy.DefaultConfig()
	tx, cs, ir := cfg.TxRange, cfg.CSRange, interferenceRadius(cfg)
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	var radii []float64
	for _, r := range []float64{tx, cs, ir} {
		radii = append(radii, down(r), r, up(r))
	}

	layouts := map[string][]phy.Position{
		// One station at each radius (and one ulp past it) from N0, on
		// every axis direction, plus a pair exactly CSRange apart that
		// does not involve N0.
		"radii": {
			{}, {X: tx}, {Y: cs}, {X: -ir}, {Y: -up(tx)}, {X: up(cs), Y: 1},
			{X: -up(ir), Y: -1}, {X: tx + cs}, {X: 2 * tx, Y: tx},
		},
		// Stations exactly on the cell edges of both grids: the index
		// grid (cell = interference radius) and the gateway-tree grid
		// (cell = TxRange), in a chain exactly TxRange apart.
		"cells": cellEdgeLayout(tx, ir),
		// An extent of 2,000 km is more than 1024 cells of either radius
		// per axis, so both grids coarsen their cells.
		"coarse": {
			{}, {X: tx}, {X: 2e6}, {X: 2e6 - tx}, {X: 2e6 - ir}, {X: 2e6, Y: 2e6},
			{X: 2e6 - cs, Y: 2e6}, {Y: 2e6}, {X: tx, Y: 2e6},
		},
	}
	for _, name := range []string{"radii", "cells", "coarse"} {
		pos := layouts[name]
		t.Run(name, func(t *testing.T) {
			m := boundaryMesh(pos)
			m.Ch.BuildIndex()
			check := func(step string) {
				t.Helper()
				if err := m.Ch.VerifyIndex(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				cur := positionsOf(m)
				checkGatewayTree(t, step, cur, tx)
				checkDecodeNeighbors(t, step, m)
			}
			check("build")
			checkEdgeLoss(t, "build", pos)

			// Move a station, then the last one, across every radius of
			// N0, onto every cell edge of the built grid, beyond the
			// built extent on each side, and back.
			lo, cell := gridOrigin(pos, ir)
			var targets []phy.Position
			for _, r := range radii {
				targets = append(targets, phy.Position{X: r}, phy.Position{Y: -r})
			}
			for k := -1; k <= 3; k++ {
				e := lo.X + float64(k)*cell
				targets = append(targets, phy.Position{X: e, Y: lo.Y}, phy.Position{X: e, Y: lo.Y + cell})
			}
			targets = append(targets, phy.Position{X: 5e6, Y: -5e6}, phy.Position{X: -5e6, Y: 5e6}, pos[1])
			for _, mover := range []pkt.NodeID{1, pkt.NodeID(len(pos) - 1)} {
				for i, p := range targets {
					m.Ch.MoveNode(mover, p)
					check(fmt.Sprintf("move N%v #%d to %v", mover, i, p))
				}
			}
			cur := positionsOf(m)
			checkEdgeLoss(t, "after moves", cur)
			// The indexed, moved mesh calibrates like a fresh one.
			m.ApplyEdgeLoss(0.6)
			ref := boundaryMesh(cur)
			edgeLossAllPairs(ref, 0.6)
			compareLosses(t, "moved mesh", m, ref)
			check("after edge loss")
		})
	}
}

// interferenceRadius is the PHY neighbor-list radius (see the phy package
// comment): CSRange·max(1, CaptureRatio)^(1/PathLossExp), with the same
// relative margin.
func interferenceRadius(cfg phy.Config) float64 {
	return cfg.CSRange * math.Pow(math.Max(1, cfg.CaptureRatio), 1/cfg.PathLossExp) * (1 + 1e-9)
}

// cellEdgeLayout places stations on the cell edges of both grids, with
// the grid origin at (0, 0).
func cellEdgeLayout(tx, ir float64) []phy.Position {
	var pos []phy.Position
	for k := 0; k <= 4; k++ {
		pos = append(pos, phy.Position{X: float64(k) * tx})
	}
	for k := 1; k <= 3; k++ {
		pos = append(pos, phy.Position{X: float64(k) * ir}, phy.Position{Y: float64(k) * ir})
	}
	return append(pos, phy.Position{X: ir, Y: ir}, phy.Position{X: 2 * ir, Y: tx})
}

// gridOrigin returns the corner and cell side of the spatial grid a
// radius-r query grid over pos uses, reproducing its cap-driven
// coarsening, so moves can target its cell edges exactly.
func gridOrigin(pos []phy.Position, r float64) (phy.Position, float64) {
	lo, hi := pos[0], pos[0]
	for _, p := range pos[1:] {
		lo = phy.Position{X: math.Min(lo.X, p.X), Y: math.Min(lo.Y, p.Y)}
		hi = phy.Position{X: math.Max(hi.X, p.X), Y: math.Max(hi.Y, p.Y)}
	}
	cells := func(ext float64) float64 { return math.Min(float64(int(ext/r)+1), 1024) }
	cell := math.Max(r, math.Max((hi.X-lo.X)/cells(hi.X-lo.X), (hi.Y-lo.Y)/cells(hi.Y-lo.Y))+1e-9)
	return lo, cell
}

func boundaryMesh(pos []phy.Position) *Mesh {
	m := New(sim.NewEngine(1), phy.DefaultConfig(), mac.DefaultConfig())
	for i, p := range pos {
		m.AddNode(pkt.NodeID(i), p)
	}
	return m
}

func positionsOf(m *Mesh) []phy.Position {
	var pos []phy.Position
	for _, id := range m.Ch.NodeIDs() {
		pos = append(pos, m.Ch.Position(id))
	}
	return pos
}

// checkGatewayTree compares routing.GatewayTree with an all-pairs BFS
// that visits candidates in ascending index order.
func checkGatewayTree(t *testing.T, step string, pos []phy.Position, r float64) {
	t.Helper()
	want := make([]int, len(pos))
	for i := range want {
		want[i] = -1
	}
	want[0] = 0
	for queue := []int{0}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for v := range pos {
			if want[v] < 0 && pos[u].Dist(pos[v]) <= r {
				want[v] = u
				queue = append(queue, v)
			}
		}
	}
	got := routing.GatewayTree(pos, r)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: GatewayTree = %v, want %v", step, got, want)
		}
	}
}

// checkDecodeNeighbors compares the index's decode-range lists with the
// pairwise InTxRange filter.
func checkDecodeNeighbors(t *testing.T, step string, m *Mesh) {
	t.Helper()
	ids := m.Ch.NodeIDs()
	for _, a := range ids {
		var want []pkt.NodeID
		for _, b := range ids {
			if b != a && m.Ch.InTxRange(a, b) {
				want = append(want, b)
			}
		}
		got := m.Ch.DecodeNeighbors(a, nil)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: DecodeNeighbors(%v) = %v, want %v", step, a, got, want)
		}
	}
}

// checkEdgeLoss calibrates two fresh meshes over pos, one with
// ApplyEdgeLoss and one with the all-pairs reference, and compares every
// directed link's loss.
func checkEdgeLoss(t *testing.T, step string, pos []phy.Position) {
	t.Helper()
	got, want := boundaryMesh(pos), boundaryMesh(pos)
	got.ApplyEdgeLoss(0.6)
	edgeLossAllPairs(want, 0.6)
	compareLosses(t, step, got, want)
}

func compareLosses(t *testing.T, step string, got, want *Mesh) {
	t.Helper()
	ids := want.Ch.NodeIDs()
	for _, a := range ids {
		for _, b := range ids {
			if g, w := got.Ch.LinkLoss(a, b), want.Ch.LinkLoss(a, b); g != w {
				t.Fatalf("%s: loss %v->%v = %v, want %v", step, a, b, g, w)
			}
		}
	}
}

// edgeLossAllPairs is the reference edge-loss calibration: every ordered
// pair of stations in ascending id order, with the ApplyEdgeLoss formula.
func edgeLossAllPairs(m *Mesh, maxLoss float64) {
	ids := m.Ch.NodeIDs()
	r := m.Ch.Config().TxRange
	half := r / 2
	for _, a := range ids {
		pa := m.Ch.Position(a)
		for _, b := range ids {
			if a == b {
				continue
			}
			d := pa.Dist(m.Ch.Position(b))
			if d > r || d <= half {
				continue
			}
			frac := (d - half) / half
			m.Ch.SetLinkLoss(a, b, maxLoss*frac*frac)
		}
	}
}
