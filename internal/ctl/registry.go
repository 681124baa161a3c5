package ctl

import (
	"strings"

	ez "ezflow/internal/ezflow"
	"ezflow/internal/mesh"
	"ezflow/internal/registry"
)

// Options carries the tunables of the controllers that have any: EZ-Flow
// and the penalty scheme. Zero values select the defaults. A scenario
// passes one Options to whichever controller it deploys, so sweeping
// controllers never changes anything but the controller.
type Options struct {
	// EZ configures the ezflow controller (CAA thresholds, sniff loss).
	EZ ez.Options
	// PenaltyQ is the penalty controller's throttling factor in (0, 1]:
	// relays keep a window of 16 and flow sources use 16/PenaltyQ.
	PenaltyQ float64
}

// DefaultPenaltyQ is the penalty factor the paper's comparison uses:
// q = 2^4/2^11, the stable regime EZ-Flow rediscovers (§5.2).
const DefaultPenaltyQ = 1.0 / 128

// fillDefaults replaces zero (or, for PenaltyQ, out-of-range) values with
// the defaults, leaving caller-set fields alone.
func (o *Options) fillDefaults() {
	if o.EZ.CAA.Window == 0 {
		o.EZ.CAA = ez.DefaultCAAConfig()
	}
	if o.PenaltyQ <= 0 || o.PenaltyQ > 1 {
		o.PenaltyQ = DefaultPenaltyQ
	}
}

// Instance is a controller installed over one scenario's mesh.
type Instance interface {
	// Extend (re)installs the controller over queues created since the
	// previous call — deployment calls it once up front, and the dynamics
	// layer calls it again after every BFS route repair so repair-created
	// queues come under control.
	Extend(m *mesh.Mesh)
	// OverheadBytes reports the control bytes the instance put (or
	// scheduled) on the air: piggybacked header bytes, injected control
	// frames and their ACKs. Message-free controllers report 0.
	OverheadBytes() uint64
}

// Info describes one registered controller.
type Info struct {
	// Name is the registry key ("ezflow", "backpressure", ...).
	Name string
	// Summary is the one-line description CLI usage strings embed.
	Summary string
	// Deploy installs the controller over a mesh. Implementations fill
	// the Options defaults they read, so callers may pass a zero Options.
	Deploy func(m *mesh.Mesh, opts Options) Instance
}

// Registry holds every registered controller, keyed by name.
var Registry = registry.New("controller", func(i Info) bool { return i.Deploy != nil })

// Register adds a controller to the Registry. It panics on an empty
// name, a duplicate, or a nil Deploy — registration bugs must fail at
// init.
func Register(info Info) { Registry.Register(info.Name, info.Summary, info) }

// IsNone reports whether name is one of the spellings that select no
// controller at all — the raw 802.11 baseline: "", "802.11", "80211",
// "off", "none", "plain". Every CLI flag, sweep axis and scenario field
// shares this predicate so the spellings can never drift apart.
func IsNone(name string) bool {
	switch strings.ToLower(name) {
	case "", "802.11", "80211", "off", "none", "plain":
		return true
	}
	return false
}
