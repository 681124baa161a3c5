// Node-index plumbing: a compact dense index over a set of NodeIDs.
//
// NodeIDs are arbitrary integers chosen by topology builders, so runtime
// state keyed by node wants a translation to dense slots 0..N-1 — then
// per-node state lives in flat slices instead of maps, and broadcast
// iteration in slot order is identical to iteration in ascending id
// order (the repository's determinism convention). The PHY channel keys
// its station table and neighbor index on a NodeIndex; lookups are
// branch-predictable binary searches with no hashing and no allocation.
package pkt

import "slices"

// NodeIndex maps a sorted set of NodeIDs to dense slots 0..Len()-1 and
// back. The zero value is an empty, usable index. Slots are assigned in
// ascending id order, so iterating slots 0..Len()-1 visits nodes in the
// same order as iterating sorted ids — inserting a new id therefore
// shifts the slots of every larger id (Add returns the insertion slot so
// callers can keep parallel slices aligned).
type NodeIndex struct {
	ids []NodeID
}

// Len reports the number of indexed ids.
func (x *NodeIndex) Len() int { return len(x.ids) }

// IDs returns the backing sorted id slice. Callers must not modify it.
func (x *NodeIndex) IDs() []NodeID { return x.ids }

// ID returns the id at the given slot.
func (x *NodeIndex) ID(slot int) NodeID { return x.ids[slot] }

// Slot returns the dense slot of id, or ok=false if id is not indexed.
func (x *NodeIndex) Slot(id NodeID) (slot int, ok bool) { return SlotOf(x.ids, id) }

// SlotOf returns the position of id in the ascending, duplicate-free ids
// with slices.BinarySearch semantics (the insertion point and ok=false
// when id is absent). Builder-made topologies number their nodes
// 0..N-1, which such a slice holds exactly when its last id is N-1; then
// the position is the id itself and no search runs.
func SlotOf(ids []NodeID, id NodeID) (slot int, ok bool) {
	if n := len(ids); n > 0 && ids[0] == 0 && ids[n-1] == NodeID(n-1) {
		switch {
		case id < 0:
			return 0, false
		case int(id) >= n:
			return n, false
		}
		return int(id), true
	}
	return slices.BinarySearch(ids, id)
}

// Add inserts id, keeping the set sorted, and returns the slot it was
// assigned (every previously indexed id >= id moves up one slot). It
// reports ok=false — without inserting — if id is already present.
func (x *NodeIndex) Add(id NodeID) (slot int, ok bool) {
	at, present := slices.BinarySearch(x.ids, id)
	if present {
		return at, false
	}
	x.ids = slices.Insert(x.ids, at, id)
	return at, true
}
