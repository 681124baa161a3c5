// Spatial hash grid and the neighbor kernel. Every "which positions lie
// within r of position i, ascending by index, and at what distance"
// question the simulator asks — building the PHY neighbor index,
// re-indexing a moving station, and the gateway-tree connectivity search
// of the topology builders — is answered by SpatialGrid.Within. A uniform
// grid with cell side r finds the candidates in the 3×3 cell
// neighborhood, turning an O(N²) all-pairs pass into O(N·degree) for any
// spatially bounded deployment; Within then keeps exactly those with
// Dist <= r, in ascending index order.
package phy

import (
	"math"
	"slices"
)

// Neighbor is one result of a Within query: the index of a position within
// the query radius and its distance from the probe.
type Neighbor struct {
	I int32
	D float64
}

// SpatialGrid is a uniform spatial hash over a slice of positions, built
// for one query radius. Cells are square with side at least that radius,
// so every position within it of a probe lies in the probe's 3×3 cell
// neighborhood. Within a cell, indices are stored ascending.
type SpatialGrid struct {
	radius     float64 // the query radius Within answers for
	cell       float64
	minX, minY float64
	cols, rows int
	pos        []Position // retained from NewSpatialGrid; Move updates it
	cells      [][]int32
	cand       []int32 // Within's candidate buffer, reused across queries
}

// maxGridCellsPerAxis bounds grid memory when the deployment extent is
// huge relative to the query radius; past the cap, cells simply get
// coarser (queries stay correct, just less selective).
const maxGridCellsPerAxis = 1024

// NewSpatialGrid builds a grid over pos for queries of the given radius.
// The grid keeps pos and Move writes to it, so the caller hands the slice
// over. A non-positive or non-finite radius yields a single cell holding
// every point (correct, no pruning).
func NewSpatialGrid(pos []Position, radius float64) *SpatialGrid {
	g := &SpatialGrid{radius: radius, cell: radius, cols: 1, rows: 1, pos: pos}
	if len(pos) == 0 {
		g.cells = make([][]int32, 1)
		return g
	}
	minX, minY := pos[0].X, pos[0].Y
	maxX, maxY := minX, minY
	for _, p := range pos[1:] {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	g.minX, g.minY = minX, minY
	if radius > 0 && !math.IsInf(radius, 1) {
		g.cols = gridAxisCells(maxX-minX, radius)
		g.rows = gridAxisCells(maxY-minY, radius)
		// Honour the cap by coarsening the cells, never by dropping area.
		g.cell = math.Max(radius, math.Max((maxX-minX)/float64(g.cols), (maxY-minY)/float64(g.rows))+1e-9)
	}
	g.cells = make([][]int32, g.cols*g.rows)
	for i, p := range pos {
		c := g.cellIndex(p)
		g.cells[c] = append(g.cells[c], int32(i))
	}
	return g
}

// gridAxisCells sizes one axis: enough cells of side `cell` to cover the
// extent, at least 1, at most maxGridCellsPerAxis.
func gridAxisCells(extent, cell float64) int {
	n := int(extent/cell) + 1
	if n < 1 {
		n = 1
	}
	if n > maxGridCellsPerAxis {
		n = maxGridCellsPerAxis
	}
	return n
}

// cellXY maps a position to its cell coordinates, clamping onto the grid
// so probes outside the built extent still resolve.
func (g *SpatialGrid) cellXY(p Position) (int, int) {
	return min(g.axisCell(p.X-g.minX), g.cols-1), min(g.axisCell(p.Y-g.minY), g.rows-1)
}

func (g *SpatialGrid) cellIndex(p Position) int {
	cx, cy := g.cellXY(p)
	return cy*g.cols + cx
}

func (g *SpatialGrid) axisCell(d float64) int {
	if d <= 0 || g.cell <= 0 {
		return 0
	}
	return int(d / g.cell)
}

// Move relocates index i to `to`, re-bucketing it and keeping cell
// contents ascending. Clamping makes the grid closed under movement: a
// point that drifts outside the built extent lands in the nearest edge
// cell, and because the cell mapping is monotone and 1-Lipschitz in cell
// units per axis, any probe within the query radius of the true position
// still finds it in its 3×3 neighborhood. Cells only get less selective
// (never incorrect) as points leave the original extent.
func (g *SpatialGrid) Move(i int32, to Position) {
	a, b := g.cellIndex(g.pos[i]), g.cellIndex(to)
	g.pos[i] = to
	if a == b {
		return
	}
	ca := g.cells[a]
	k := lowerBound32(ca, i)
	if k >= len(ca) || ca[k] != i {
		panic("phy: SpatialGrid.Move of unbucketed index")
	}
	copy(ca[k:], ca[k+1:])
	g.cells[a] = ca[:len(ca)-1]
	cb := append(g.cells[b], 0)
	k = lowerBound32(cb[:len(cb)-1], i)
	copy(cb[k+1:], cb[k:])
	cb[k] = i
	g.cells[b] = cb
}

// lowerBound32 returns the first index in the ascending slice s whose
// value is >= v (len(s) when none is).
func lowerBound32(s []int32, v int32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Near appends to dst the indices of every stored position in the 3×3
// cell neighborhood of p — a superset of the positions within the query
// radius of p, sorted per cell but not globally — and returns the
// extended slice.
func (g *SpatialGrid) Near(p Position, dst []int32) []int32 {
	cx, cy := g.cellXY(p)
	for y := max(cy-1, 0); y <= min(cy+1, g.rows-1); y++ {
		for x := max(cx-1, 0); x <= min(cx+1, g.cols-1); x++ {
			dst = append(dst, g.cells[y*g.cols+x]...)
		}
	}
	return dst
}

// Within is the neighbor kernel: it appends to dst every other stored
// position j with Dist(pos[i], pos[j]) <= radius, ascending by j, each
// with that distance, and returns the extended slice. Reusing dst keeps
// repeated queries allocation-free once its capacity has warmed up.
func (g *SpatialGrid) Within(i int32, dst []Neighbor) []Neighbor {
	p := g.pos[i]
	cand := g.Near(p, g.cand[:0])
	slices.Sort(cand)
	for _, j := range cand {
		if j == i {
			continue
		}
		if d := p.Dist(g.pos[j]); d <= g.radius {
			dst = append(dst, Neighbor{I: j, D: d})
		}
	}
	g.cand = cand
	return dst
}

// RangeNeighbors returns, for every position, the indices of the other
// positions within r of it in ascending order: the unit-disk graph over
// pos, one Within query per position.
func RangeNeighbors(pos []Position, r float64) [][]int32 {
	g := NewSpatialGrid(pos, r)
	lists := make([][]int32, len(pos))
	var near []Neighbor
	for i := range pos {
		near = g.Within(int32(i), near[:0])
		lists[i] = make([]int32, len(near))
		for k, nb := range near {
			lists[i][k] = nb.I
		}
	}
	return lists
}
