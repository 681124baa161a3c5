package ctl

import "ezflow/internal/mesh"

// penaltyRelayWindow is the relay window of the penalty scheme; flow
// sources use penaltyRelayWindow/q.
const penaltyRelayWindow = 16

// penalty is the static penalty scheme of Aziz et al. [9]: every flow
// source is throttled to penaltyRelayWindow/q by a topology-dependent
// factor q chosen offline, while relays use penaltyRelayWindow. It is the
// scheme EZ-Flow rediscovers distributively (§5.2, where the stable regime
// matches q = 2^4/2^11). With q = 1 it degenerates to a uniform window.
type penalty struct {
	q float64
}

// Extend implements Instance by (re)applying the source and relay windows
// over the current routes, so route repair re-throttles new sources and
// relays.
func (p *penalty) Extend(m *mesh.Mesh) {
	if p.q <= 0 || p.q > 1 {
		panic("ctl: penalty factor q must be in (0,1]")
	}
	cwSource := int(float64(penaltyRelayWindow) / p.q)
	for _, f := range m.Flows() {
		route := m.Route(f)
		for _, q := range m.Node(route[0]).Queues() {
			q.SetCWmin(cwSource)
		}
		for i := 1; i < len(route)-1; i++ {
			for _, q := range m.Node(route[i]).Queues() {
				q.SetCWmin(penaltyRelayWindow)
			}
		}
	}
}

// OverheadBytes implements Instance: the scheme is configured offline
// and sends nothing.
func (p *penalty) OverheadBytes() uint64 { return 0 }

func init() {
	Register(Info{
		Name:    "penalty",
		Summary: "static penalty scheme of [9]: offline topology-tuned source throttling",
		Deploy: func(m *mesh.Mesh, opts Options) Instance {
			opts.fillDefaults()
			p := &penalty{q: opts.PenaltyQ}
			p.Extend(m)
			return p
		},
	})
}
