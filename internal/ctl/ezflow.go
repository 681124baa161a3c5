package ctl

import (
	ez "ezflow/internal/ezflow"
	"ezflow/internal/mesh"
	"ezflow/internal/pkt"
)

// ezFlow is the paper's controller: one BOE+CAA pair (an ez.Controller,
// the relay's State) per relay. The BOE learns the identifiers the node
// sends to the successor and the ones it overhears the successor forward;
// the CAA turns its estimates into the relay's window. It sends nothing,
// so its deployment reports no overhead.
type ezFlow struct {
	NopHooks
	opts ez.Options
}

// Name implements Controller.
func (e *ezFlow) Name() string { return "ezflow" }

// Attach implements Controller: the relay's estimator and window
// adaptation, seeded with the queue's current window.
func (e *ezFlow) Attach(r *Relay) {
	r.State = ez.NewController(r.Node, r.Caps.Queue(), r.Eng.Now, e.opts.CAA)
}

// OnSent records the identifiers the relay truly puts on the air toward
// its successor.
func (e *ezFlow) OnSent(r *Relay, f *pkt.Frame) { r.State.(*ez.Controller).OnSent(f) }

// OnOverhear feeds an overheard frame to the BOE, after dropping it with
// probability SniffLoss (drawn from the engine RNG). Zero allocations.
func (e *ezFlow) OnOverhear(r *Relay, f *pkt.Frame, _ pkt.CaptureInfo) {
	if e.opts.SniffLoss > 0 && r.Eng.Rand().Float64() < e.opts.SniffLoss {
		return
	}
	r.State.(*ez.Controller).BOE.OnSniff(f)
}

// EZControllers returns the EZ-Flow state of every relay of inst, in
// deployment order, or nil when inst is not an ezflow deployment.
func EZControllers(inst Instance) []*ez.Controller {
	d, ok := inst.(*Deployment)
	if !ok {
		return nil
	}
	var cs []*ez.Controller
	for _, r := range d.Relays {
		if c, ok := r.State.(*ez.Controller); ok {
			cs = append(cs, c)
		}
	}
	return cs
}

func init() {
	Register(Info{
		Name:    "ezflow",
		Summary: "the paper's BOE+CAA: passive buffer estimation, message-free (default)",
		Deploy: func(m *mesh.Mesh, opts Options) Instance {
			opts.fillDefaults()
			return Deploy(m, &ezFlow{opts: opts.EZ}, 0)
		},
	})
}
