package ezflow

import (
	"ezflow/internal/mac"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// Controller is one EZ-Flow instance: the BOE/CAA pair a node runs for one
// of its successors. It holds state only. Its driver (the ezflow controller
// of internal/ctl) hands it the frames the node truly puts on the air
// (OnSent — resolving the sniffer constraint of §4.1 the way the paper's
// two-interface deployment does) and the frames it overhears (the BOE's
// OnSniff). Its only actuator is the MAC queue's CWmin.
type Controller struct {
	Node      pkt.NodeID
	Successor pkt.NodeID
	BOE       *BOE
	CAA       *CAA
	Queue     *mac.Queue

	// CWTrace records (time, cw) after every change, for Figs. 8 and 11.
	CWTrace []CWPoint
}

// CWPoint is one contention-window trace sample.
type CWPoint struct {
	At sim.Time
	CW int
}

// Options configures EZ-Flow.
type Options struct {
	CAA CAAConfig
	// SniffLoss drops each overheard frame at the BOE with this
	// probability (0 = perfect monitor mode within radio constraints).
	SniffLoss float64
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{CAA: DefaultCAAConfig()}
}

// NewController creates the controller node runs for queue q, whose next
// hop is the watched successor. It wires nothing to the MAC; the trace
// starts with q's current window at now().
func NewController(node pkt.NodeID, q *mac.Queue, now func() sim.Time, cfg CAAConfig) *Controller {
	c := &Controller{Node: node, Successor: q.NextHop(), Queue: q}
	c.CAA = NewCAA(cfg, q, now)
	c.CAA.OnDecision = func(d Decision) {
		if d.Changed {
			c.CWTrace = append(c.CWTrace, CWPoint{d.At, d.CW})
		}
	}
	c.BOE = NewBOE(c.Successor, now, c.CAA.OnSample)
	c.CWTrace = append(c.CWTrace, CWPoint{now(), q.CWmin()})
	return c
}

// OnSent records the identifier of a data frame the node put on the air,
// if it went to the watched successor.
func (c *Controller) OnSent(f *pkt.Frame) {
	if f.TxDst == c.Successor && f.Payload != nil {
		c.BOE.RecordSent(f.Payload.Checksum16())
	}
}
