package phy

import (
	"testing"

	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// fuzzGrid is the coordinate step of FuzzNeighborIndex layouts: 25 m
// divides both the 250 m decode and the 550 m carrier-sense range, so
// byte coordinates land stations exactly on those boundaries.
const fuzzGrid = 25

// FuzzNeighborIndex decodes a layout of at most 64 stations and a script
// of at most 64 MoveNode/SetLinkLoss/SetLinkDown operations from the
// input, and checks the patched neighbor index against its all-pairs
// oracle (VerifyIndex) after the build and after every operation.
//
// Input format: byte 0 is the station count (2 + b%63), then two bytes
// (x, y in 25 m steps) per station, then four bytes per operation:
// kind, station, and two operands. Moves whose kind has the high bit set
// scale the target by 1000, far outside the built grid extent.
func FuzzNeighborIndex(f *testing.F) {
	f.Add([]byte{4, 0, 0, 10, 0, 22, 0, 0, 22, 0, 1, 30, 0, 1, 2, 200, 0, 2, 3, 1, 0})
	f.Add([]byte{8, 0, 0, 10, 0, 20, 0, 30, 0, 40, 0, 0, 10, 0, 20, 39, 39,
		0, 7, 0, 0, 128, 3, 9, 9, 1, 0, 7, 128, 2, 7, 0, 1, 0, 7, 40, 40})
	f.Add([]byte{63, 255, 255, 0, 0, 128, 5, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%63
		data = data[1:]
		if len(data) < 2*n {
			return
		}
		ch := NewChannel(sim.NewEngine(1), DefaultConfig())
		for i := 0; i < n; i++ {
			ch.AddNode(pkt.NodeID(i), Position{X: fuzzGrid * float64(data[2*i]), Y: fuzzGrid * float64(data[2*i+1])}, nil)
		}
		data = data[2*n:]
		ch.BuildIndex()
		if err := ch.VerifyIndex(); err != nil {
			t.Fatalf("build: %v", err)
		}
		for op := 0; op < 64 && len(data) >= 4; op, data = op+1, data[4:] {
			kind, a, x, y := data[0], pkt.NodeID(int(data[1])%n), data[2], data[3]
			b := pkt.NodeID(int(x) % n)
			switch kind % 3 {
			case 0:
				scale := float64(fuzzGrid)
				if kind&0x80 != 0 {
					scale *= 1000
				}
				ch.MoveNode(a, Position{X: scale * float64(x), Y: scale * float64(y)})
			case 1:
				ch.SetLinkLoss(a, b, float64(y)/255)
			case 2:
				ch.SetLinkDown(a, b, y&1 == 1)
			}
			if err := ch.VerifyIndex(); err != nil {
				t.Fatalf("op %d (kind %d on N%v): %v", op, kind, a, err)
			}
		}
	})
}
