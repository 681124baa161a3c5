package ctl

import (
	"ezflow/internal/mesh"
	"ezflow/internal/pkt"
)

// diffqCW maps backlog differentials to CWmin classes, emulating DiffQ's
// four 802.11e queues with decreasing aggressiveness.
var diffqCW = [4]int{16, 32, 128, 512}

// diffqPiggybackBytes is the per-frame header overhead DiffQ adds.
const diffqPiggybackBytes = 4

// diffQ is the DiffQ-style differential-backlog controller of Warrier et
// al. [31], installed on every node. Unlike EZ-Flow it uses message
// passing: each node stamps its total backlog on its outgoing data frames
// (Frame.QueueTag) and, on every decoded data frame, maps the backlog
// differential toward each next hop to one of four CWmin classes.
type diffQ struct {
	nodes    map[pkt.NodeID]*diffqNode
	overhead uint64
}

// diffqNode is the per-node DiffQ state.
type diffqNode struct {
	node *mesh.Node
	// neighbourBacklog is the queue size most recently advertised by each
	// neighbour, learned from the piggybacked QueueTag.
	neighbourBacklog map[pkt.NodeID]int
	// updates counts the backlog advertisements received.
	updates uint64
}

// deployDiffQ installs DiffQ on every node of the mesh: (a) each outgoing
// data frame carries the node's current total backlog, and (b) each
// received or overheard stamped frame updates the neighbour's advertised
// backlog and re-maps every transmit queue's CWmin from the differential
// (own - successor's): large positive differential -> aggressive class.
func deployDiffQ(m *mesh.Mesh) *diffQ {
	d := &diffQ{nodes: make(map[pkt.NodeID]*diffqNode)}
	for _, n := range m.Nodes() {
		dn := &diffqNode{node: n, neighbourBacklog: make(map[pkt.NodeID]int)}
		d.nodes[n.ID] = dn
		mc := n.MAC
		mc.AddTxNotify(func(f *pkt.Frame) {
			f.QueueTag = mc.TotalQueued()
			d.overhead += diffqPiggybackBytes
		})
		mc.AddTap(func(f *pkt.Frame, _ pkt.CaptureInfo) {
			if f.Type != pkt.FrameData {
				return
			}
			dn.neighbourBacklog[f.TxSrc] = f.QueueTag
			dn.updates++
			dn.remap()
		})
	}
	return d
}

// Extend implements Instance as a no-op: the per-frame remap already
// walks every queue, including those route repair creates.
func (d *diffQ) Extend(*mesh.Mesh) {}

// OverheadBytes implements Instance: the piggybacked backlog bytes.
func (d *diffQ) OverheadBytes() uint64 { return d.overhead }

// remap assigns each transmit queue a CWmin class from the backlog
// differential toward its next hop.
func (dn *diffqNode) remap() {
	own := dn.node.MAC.TotalQueued()
	for _, q := range dn.node.Queues() {
		diff := own - dn.neighbourBacklog[q.NextHop()]
		var cw int
		switch {
		case diff > 20:
			cw = diffqCW[0]
		case diff > 5:
			cw = diffqCW[1]
		case diff > 0:
			cw = diffqCW[2]
		default:
			cw = diffqCW[3]
		}
		q.SetCWmin(cw)
	}
}

func init() {
	Register(Info{
		Name:    "diffq",
		Summary: "DiffQ-style four-class differential backlog (piggybacked totals)",
		Deploy:  func(m *mesh.Mesh, _ Options) Instance { return deployDiffQ(m) },
	})
}
