package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestSampleLayer(t *testing.T) {
	cases := []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"ezflow/internal/phy.(*Channel).TransmitFrom", "ezflow/internal/mac.(*MAC).kick"}, "phy"},
		// Standard-library and runtime frames go to their nearest module caller.
		{[]string{"slices.BinarySearch[go.shape.[]ezflow/internal/pkt.NodeID,go.shape.int]",
			"ezflow/internal/pkt.(*NodeIndex).Slot", "ezflow/internal/routing.BFS.Route"}, "pkt"},
		{[]string{"runtime.mapaccess2_fast64", "math.archHypot", "ezflow/internal/routing.BFS.Route"}, "routing"},
		{[]string{"runtime.mallocgc", "ezflow/internal/sim.(*Engine).get"}, "sim"},
		// GC goes to runtime, even as an assist charged to module code.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "ezflow/internal/sim.(*Engine).get"}, "runtime"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"ezflow/internal/ezflow.(*Controller).adapt"}, "ctl"},
		{[]string{"ezflow/internal/baseline.(*DiffQDeployment).remap"}, "ctl"},
		{[]string{"ezflow/internal/trace.(*Recorder).sample"}, "stats"},
		{[]string{"ezflow.(*Scenario).Run"}, "ezflow"},
		{[]string{"ezflow/internal/obs.(*Registry).Snapshot"}, "ezflow"},
		{[]string{"encoding/json.Marshal", "ezflow/internal/fabric.NewKey"}, "fabric"},
		{[]string{"ezflow/internal/campaign.runAllCancel[go.shape.struct { ezflow/internal/sim.x int }].func1"}, "campaign"},
		{[]string{"crypto/sha256.block", "main.runDigest.Sum"}, "bench"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"ezflow/internal/phy.(*Channel).Busy":            "ezflow/internal/phy",
		"ezflow.NewScenario.func1":                       "ezflow",
		"main.execRun":                                   "main",
		"runtime.mallocgc":                               "runtime",
		"slices.BinarySearch[go.shape.[]ezflow/x.T,int]": "slices",
		"ezflow/internal/mac.New.func3":                  "ezflow/internal/mac",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for hand-built test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}
func (b *pb) uint(field int, x uint64) { b.varint(uint64(field)<<3 | 0); b.varint(x) }
func (b *pb) bytes(field int, p []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(p)))
	b.Write(p)
}
func (b *pb) msg(field int, f func(*pb)) {
	var m pb
	f(&m)
	b.bytes(field, m.Bytes())
}
func (b *pb) packed(field int, xs ...uint64) {
	var m pb
	for _, x := range xs {
		m.varint(x)
	}
	b.bytes(field, m.Bytes())
}

func TestDecodeHandBuiltProfile(t *testing.T) {
	var p pb
	for _, s := range []string{"", "samples", "count", "runtime.mallocgc",
		"ezflow/internal/pkt.(*NodeIndex).Slot", "ezflow/internal/routing.BFS.Route"} {
		p.bytes(6, []byte(s))
	}
	for id, name := range map[uint64]uint64{1: 3, 2: 4, 3: 5} {
		p.msg(5, func(m *pb) { m.uint(1, id); m.uint(2, name); m.uint(3, name) })
	}
	// Location 10 is Slot inlined into BFS.Route (innermost line first);
	// location 11 is mallocgc.
	p.msg(4, func(m *pb) {
		m.uint(1, 10)
		m.msg(4, func(l *pb) { l.uint(1, 2); l.uint(2, 40) })
		m.msg(4, func(l *pb) { l.uint(1, 3); l.uint(2, 90) })
	})
	p.msg(4, func(m *pb) { m.uint(1, 11); m.msg(4, func(l *pb) { l.uint(1, 1) }) })
	// One sample with packed fields, one with unpacked ones.
	p.msg(2, func(m *pb) { m.packed(1, 11, 10); m.packed(2, 7, 70000000) })
	p.msg(2, func(m *pb) { m.uint(1, 10); m.uint(2, 3); m.uint(2, 30000000) })

	samples, err := decodeProfile(p.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("decoded %d samples, want 2", len(samples))
	}
	want0 := "runtime.mallocgc|ezflow/internal/pkt.(*NodeIndex).Slot|ezflow/internal/routing.BFS.Route"
	if got := strings.Join(samples[0].Funcs, "|"); got != want0 || samples[0].Count != 7 {
		t.Errorf("sample 0 = %s x%d, want %s x7", got, samples[0].Count, want0)
	}
	if samples[1].Count != 3 || len(samples[1].Funcs) != 2 {
		t.Errorf("sample 1 = %v x%d", samples[1].Funcs, samples[1].Count)
	}
	sh := layerShares(samples)
	if sh["pkt"] != 1 {
		t.Errorf("pkt share = %v, want 1 (%v)", sh["pkt"], sh)
	}
	if _, err := decodeProfile(p.Bytes()[:len(p.Bytes())-3]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

//go:noinline
func burnCPU(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestDecodeRuntimeProfile reads a profile that runtime/pprof wrote.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, burn int64
	for _, s := range samples {
		total += s.Count
		for _, fn := range s.Funcs {
			if strings.HasSuffix(fn, ".burnCPU") {
				burn += s.Count
				if l := sampleLayer(s.Funcs); l != "bench" {
					t.Errorf("burnCPU stack charged to %s, want bench: %v", l, s.Funcs)
				}
				break
			}
		}
	}
	if total == 0 || burn*2 < total {
		t.Fatalf("burnCPU has %d of %d samples", burn, total)
	}
}
