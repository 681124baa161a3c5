package ctl

import (
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
	"ezflow/internal/traffic"
)

func newChain(t *testing.T, hops int) (*sim.Engine, *mesh.Mesh) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := mesh.Chain(eng, hops, phy.DefaultConfig(), mac.DefaultConfig())
	return eng, m
}

func TestPenaltySetsWindows(t *testing.T) {
	_, m := newChain(t, 4)
	(&penalty{q: 1.0 / 8}).Extend(m)
	// Source queue cw = 16/(1/8) = 128; relays = 16.
	if cw := m.Node(0).SourceQueue(1).CWmin(); cw != 128 {
		t.Fatalf("source cw = %d, want 128", cw)
	}
	for i := 1; i <= 3; i++ {
		n := m.Node(pkt.NodeID(i))
		for _, q := range n.Queues() {
			if q.CWmin() != penaltyRelayWindow {
				t.Fatalf("relay N%d cw = %d, want %d", i, q.CWmin(), penaltyRelayWindow)
			}
		}
	}
}

func TestPenaltyDegeneratesToPlain(t *testing.T) {
	_, m := newChain(t, 3)
	(&penalty{q: 1}).Extend(m)
	if cw := m.Node(0).SourceQueue(1).CWmin(); cw != penaltyRelayWindow {
		t.Fatalf("q=1 source cw = %d, want the relay window %d", cw, penaltyRelayWindow)
	}
}

func TestPenaltyRejectsBadQ(t *testing.T) {
	_, m := newChain(t, 3)
	for _, q := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("penalty q=%v did not panic", q)
				}
			}()
			(&penalty{q: q}).Extend(m)
		}()
	}
}

func TestPenaltyStabilizesChain(t *testing.T) {
	// The scheme of [9] with a strong penalty must keep the first relay's
	// queue from saturating on a 4-hop chain.
	eng, m := newChain(t, 4)
	(&penalty{q: 1.0 / 32}).Extend(m)
	src := traffic.NewCBR(m, 1, 2e6, 1028)
	src.Start()
	eng.Run(600 * sim.Second)
	if d := m.Node(1).RelayDepth(); d > 40 {
		t.Fatalf("penalty scheme left N1 with %d queued", d)
	}
}
