// The PHY neighbor index: precomputed per-station neighbor lists that
// turn every Transmit/finish broadcast from an O(N) all-stations walk
// with per-pair math.Hypot/math.Pow and map lookups into an O(degree)
// walk over flat, cache-resident link records.
//
// The index has one lifecycle: it is built once, when wiring calls
// BuildIndex (or, on a bare channel, at the first query that needs it),
// and is only patched after that. Each station's list is the neighbor
// kernel's answer (SpatialGrid.Within, grid.go) turned into link records
// by appendLinks, which holds the distances, received powers and
// in-CS-range/in-Tx-range predicates. MoveNode patches the lists of a
// moving station and its neighbors through the same helper (move.go).
// The other mutable per-link state — erasure probability and severed
// flags, which the dynamics subsystem toggles mid-run — is folded into
// the same records at the build and patched in place by
// SetLinkLoss/SetLinkDown, so the hot path never consults the loss/down
// maps. Stations join only before the build: AddNode afterwards panics.
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

// buildIndex assigns dense slots in id order, buckets the stations into
// the spatial grid MoveNode keeps patching, and computes every station's
// neighbor list with the kernel, O(N·degree) for spatially bounded
// deployments. It reads the loss/down maps, so records are coherent with
// mutations applied before the build.
func (c *Channel) buildIndex() {
	n := len(c.order)
	pos := make([]Position, n)
	for i, st := range c.order {
		st.slot = int32(i)
		pos[i] = st.pos
	}
	c.sensed, c.busyTx, c.rx = make([]int32, n), make([]bool, n), make([]reception, n)
	c.grid = NewSpatialGrid(pos, c.cfg.interferenceRange())
	// All per-station lists are appended into three shared arenas and
	// sub-sliced afterwards (the arenas may reallocate while growing):
	// one allocation each instead of three per station, contiguous
	// neighbor records, and — links being pointer-free — nothing for the
	// garbage collector to scan or write-barrier.
	var links []link
	var keys, cs []int32
	bounds := make([][2]int32, n+1) // list starts in links (= keys) and cs
	for i, st := range c.order {
		start := len(links)
		bounds[i] = [2]int32{int32(start), int32(len(cs))}
		links = c.appendLinks(links, st)
		for k := start; k < len(links); k++ {
			keys = append(keys, links[k].slot)
			if links[k].inCS {
				cs = append(cs, int32(k-start))
			}
		}
	}
	bounds[n] = [2]int32{int32(len(links)), int32(len(cs))}
	for i, st := range c.order {
		lo, hi := bounds[i], bounds[i+1]
		st.nbrs = links[lo[0]:hi[0]:hi[0]]
		st.nbrSlots = keys[lo[0]:hi[0]:hi[0]]
		st.csNbrs = cs[lo[1]:hi[1]:hi[1]]
		st.owned = false
	}
	c.indexed = true
}

// appendLinks appends to dst the neighbor records of st at its current
// grid position: one per station the kernel finds within interference
// range, ascending by slot, with the cached power and range predicates
// of that distance and the link state of the loss/down maps.
func (c *Channel) appendLinks(dst []link, st *Station) []link {
	c.near = c.grid.Within(st.slot, c.near[:0])
	for _, nb := range c.near {
		key := linkKey{st.id, c.order[nb.I].id}
		dst = append(dst, link{
			slot:  nb.I,
			inCS:  nb.D <= c.cfg.CSRange,
			inTx:  nb.D <= c.cfg.TxRange,
			down:  c.down[key],
			power: c.cfg.power(nb.D),
			loss:  c.loss[key],
		})
	}
	return dst
}

// BuildIndex builds the neighbor index unless it is already built.
// Wiring calls it once the topology is complete, so setup — not the
// first transmission or route computation — pays for the build.
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
// neighbor because NewChannel rejects TxRange > CSRange; the cached inTx
// flags are the same Dist <= TxRange comparison InTxRange makes, patched
// by every MoveNode, so the result is exactly the all-pairs filter. An
// unknown id appends nothing.
func (c *Channel) DecodeNeighbors(id pkt.NodeID, buf []pkt.NodeID) []pkt.NodeID {
	c.BuildIndex()
	st := c.station(id)
	if st == nil {
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
// nil when the index is not built (the build folds the maps in) or the
// pair is beyond interference range (no cached state exists to patch).
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
