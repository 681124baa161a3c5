package ctl

import (
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/sim"
	"ezflow/internal/traffic"
)

func TestDiffQPiggybacksAndAdapts(t *testing.T) {
	eng, m := newChain(t, 4)
	d := deployDiffQ(m)
	src := traffic.NewCBR(m, 1, 2e6, 1028)
	src.Start()
	eng.Run(120 * sim.Second)
	if d.OverheadBytes() == 0 {
		t.Fatal("DiffQ sent no piggybacked bytes (message passing absent)")
	}
	if d.nodes[1].updates == 0 {
		t.Fatal("DiffQ node never learned a neighbour backlog")
	}
	// At least one queue should have left the default CWmin class.
	moved := false
	for _, n := range m.Nodes() {
		for _, q := range n.Queues() {
			if q.CWmin() != mac.DefaultCWmin {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("DiffQ never remapped any CWmin")
	}
}

func TestDiffQOverheadGrowsWithTraffic(t *testing.T) {
	run := func(dur sim.Time) uint64 {
		eng, m := newChain(t, 3)
		d := deployDiffQ(m)
		src := traffic.NewCBR(m, 1, 2e6, 1028)
		src.Start()
		eng.Run(dur)
		return d.OverheadBytes()
	}
	short, long := run(30*sim.Second), run(120*sim.Second)
	if long <= short {
		t.Fatalf("overhead did not grow with traffic: %d vs %d", short, long)
	}
}
