// The PHY neighbor index: precomputed per-station neighbor lists that
// turn every Transmit/finish broadcast from an O(N) all-stations walk
// with per-pair math.Hypot/math.Pow and map lookups into an O(degree)
// walk over flat, cache-resident link records.
//
// Geometry changes only through explicit position updates (phy.MoveNode,
// driven by the mobility subsystem), so distances, received powers, and
// the in-CS-range/in-Tx-range predicates are computed once, when wiring
// calls BuildIndex (or, on a bare channel, at the first transmission),
// and thereafter patched incrementally per move (move.go) instead of
// rebuilt. The other mutable
// per-link state — erasure probability and severed flags, which the
// dynamics subsystem toggles mid-run — is folded into the same records
// and patched in place by SetLinkLoss/SetLinkDown, so the hot path never
// consults the loss/down maps.
//
// Correctness bound: a neighbor list must contain every station one
// transmission can observably affect. Carrier sense and receiver locking
// reach CSRange. Interference reaches farther: a station locked onto a
// frame received at signal power S is corrupted by an interferer of
// power p when S < CaptureRatio·p; the weakest lockable signal is
// power(CSRange), so corruption is impossible beyond
//
//	CSRange · max(1, CaptureRatio)^(1/PathLossExp)
//
// which is the neighbor-list radius (≈978 m for the default 550 m /
// 10 dB / d⁻⁴ model). Stations beyond it are provably untouched by the
// event, so skipping them is behaviour-preserving — the indexed walk
// visits the exact subsequence of the old all-stations id-ordered loop
// that had any effect, in the same order, and therefore consumes the
// engine's RNG stream identically (the byte-identity pin the golden
// campaign tests enforce).
package phy

import (
	"math"
	"slices"

	"ezflow/internal/pkt"
)

// link is the cached record of one directed neighbor pair: the constant
// geometry (received power, range predicates) plus the mutable dynamics
// state (severed flag, erasure probability) of the link from the owning
// station to the station at slot. It is deliberately pointer-free — the
// whole index is backed by shared arenas the garbage collector never has
// to scan; the rare transitions that need the neighbor's radio resolve
// it through Channel.order.
type link struct {
	slot  int32 // the neighbor's dense slot; neighbor lists are sorted by it
	inCS  bool  // within carrier-sense range
	inTx  bool  // within decode range
	down  bool  // severed by dynamics (SetLinkDown)
	power float64
	loss  float64 // erasure probability (SetLinkLoss)
}

// interferenceRange is the neighbor-list radius: the distance beyond
// which a transmission can neither be sensed nor corrupt any reception
// (see the package comment for the derivation). The tiny relative margin
// guards the float boundary of the closed-form inversion; a degenerate
// path-loss exponent (<= 0) makes received power distance-independent,
// so every station interferes with every other and the index degrades to
// full lists.
func (c Config) interferenceRange() float64 {
	if c.PathLossExp <= 0 {
		return math.Inf(1)
	}
	cr := c.CaptureRatio
	if cr < 1 {
		cr = 1
	}
	return c.CSRange * math.Pow(cr, 1/c.PathLossExp) * (1 + 1e-9)
}

// buildIndex assigns dense slots in id order and computes every
// station's neighbor list via a spatial hash, O(N·degree) for spatially
// bounded deployments. Called by BuildIndex, or lazily by the first
// transmission after a topology change; it reads the loss/down maps so
// records are coherent with mutations applied before the freeze. Dense
// per-slot event state (sensed counts, busy flags, locked receptions) is
// migrated from the previous slot assignment, so a rebuild between
// flights is transparent.
func (c *Channel) buildIndex() {
	n := len(c.order)
	r := c.cfg.interferenceRange()
	pos := make([]Position, n)
	sensed := make([]int32, n)
	busy := make([]bool, n)
	rx := make([]reception, n)
	for i, st := range c.order {
		if st.slot >= 0 && int(st.slot) < len(c.sensed) {
			sensed[i] = c.sensed[st.slot]
			busy[i] = c.busyTx[st.slot]
			rx[i] = c.rx[st.slot]
		}
		st.slot = int32(i)
		pos[i] = st.pos
	}
	c.sensed, c.busyTx, c.rx = sensed, busy, rx

	g := NewSpatialGrid(pos, r)
	c.grid = g
	cand := c.scratch
	// All per-station lists are appended into three shared arenas and
	// sub-sliced afterwards (the arenas may reallocate while growing):
	// one allocation each instead of three per station, contiguous
	// neighbor records, and — links being pointer-free — nothing for the
	// garbage collector to scan or write-barrier.
	links := c.linkArena[:0]
	keys := c.slotArena[:0]
	cs := c.csArena[:0]
	bounds := make([][3]int32, n+1)
	for i, st := range c.order {
		bounds[i] = [3]int32{int32(len(links)), int32(len(keys)), int32(len(cs))}
		cand = g.Near(pos[i], cand[:0])
		// Neighbor lists are walked in place of the old all-stations
		// id-ordered loop, so they must be ascending by slot (== id).
		slices.Sort(cand)
		start := len(links)
		for _, j := range cand {
			if int(j) == i {
				continue
			}
			d := st.pos.Dist(c.order[j].pos)
			if d > r {
				continue
			}
			key := linkKey{st.id, c.order[j].id}
			inCS := d <= c.cfg.CSRange
			if inCS {
				cs = append(cs, int32(len(links)-start))
			}
			links = append(links, link{
				slot:  j,
				inCS:  inCS,
				inTx:  d <= c.cfg.TxRange,
				down:  c.down[key],
				power: c.cfg.power(d),
				loss:  c.loss[key],
			})
			keys = append(keys, j)
		}
	}
	bounds[n] = [3]int32{int32(len(links)), int32(len(keys)), int32(len(cs))}
	c.linkArena, c.slotArena, c.csArena = links, keys, cs
	for i, st := range c.order {
		lo, hi := bounds[i], bounds[i+1]
		st.nbrs = links[lo[0]:hi[0]:hi[0]]
		st.nbrSlots = keys[lo[1]:hi[1]:hi[1]]
		st.csNbrs = cs[lo[2]:hi[2]:hi[2]]
		st.owned = false
	}
	c.scratch = cand
	c.indexed = true
}

// BuildIndex builds the neighbor index now unless it is already current.
// Wiring calls it once the topology is complete, so setup — not the
// first transmission or route computation — pays for the build; it is
// idempotent, and only an AddNode made afterwards brings the lazy
// rebuild back.
func (c *Channel) BuildIndex() {
	if !c.indexed {
		c.buildIndex()
	}
}

// DecodeNeighbors appends to buf the ids of every station within decode
// range (TxRange) of id, ascending, and returns the extended slice — the
// stations InTxRange(id, b) admits, read from the neighbor index in
// O(degree) instead of tested pair by pair. It walks the carrier-sense
// subsequence, which is ascending by slot (= id) and holds every decode
// neighbor whenever TxRange <= CSRange; the cached inTx flags are the
// same Dist <= TxRange comparison InTxRange makes, patched by every
// MoveNode, so the result is exactly the all-pairs filter. A decode range
// beyond carrier-sense range falls back to that filter. An unknown id
// appends nothing.
func (c *Channel) DecodeNeighbors(id pkt.NodeID, buf []pkt.NodeID) []pkt.NodeID {
	c.BuildIndex()
	st := c.station(id)
	if st == nil {
		return buf
	}
	if c.cfg.TxRange > c.cfg.CSRange {
		for _, o := range c.order {
			if o != st && st.pos.Dist(o.pos) <= c.cfg.TxRange {
				buf = append(buf, o.id)
			}
		}
		return buf
	}
	for _, k := range st.csNbrs {
		if lk := &st.nbrs[k]; lk.inTx {
			buf = append(buf, c.idx.ID(int(lk.slot)))
		}
	}
	return buf
}

// neighbor returns the cached link record toward the station at the
// given dense slot, or nil when it is beyond interference range. A
// binary search over the flat slot-key array — no hashing, no
// allocation, and the keys for a ~100-neighbor list fit in a handful of
// cache lines.
func (s *Station) neighbor(slot int32) *link {
	keys := s.nbrSlots
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(keys) && keys[lo] == slot {
		return &s.nbrs[lo]
	}
	return nil
}

// cachedLink returns the mutable record of the directed link a->b, or
// nil when the index is not built or the pair is beyond interference
// range (in which case no cached state exists to patch — the rebuild
// folds the maps back in).
func (c *Channel) cachedLink(a, b pkt.NodeID) *link {
	if !c.indexed {
		return nil
	}
	sa, sb := c.station(a), c.station(b)
	if sa == nil || sb == nil {
		return nil
	}
	return sa.neighbor(sb.slot)
}

// station resolves a node id to its Station, or nil if unregistered.
func (c *Channel) station(id pkt.NodeID) *Station {
	if slot, ok := c.idx.Slot(id); ok {
		return c.order[slot]
	}
	return nil
}
