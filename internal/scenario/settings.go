package scenario

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"ezflow"
	"ezflow/internal/ctl"
	"ezflow/internal/mobility"
	"ezflow/internal/routing"
)

// Setting is one named run parameter. The ezsim flags, the campaign
// sweep axes and ezserve submissions spell a setting the same way, and
// Apply is the only code that parses, validates and writes it into a
// Spec.
type Setting struct {
	Name string
	// Usage describes the accepted values, for help text.
	Usage string
	// Topology marks settings that shape the network. A scenario file
	// fixes its topology, so they conflict with one.
	Topology bool
	parse    func(v string) (any, error)
	apply    func(s *Spec, v any) error
}

// setting builds a table entry from a typed parser and applier.
func setting[T any](name, usage string, parse func(string) (T, error), apply func(*Spec, T) error) Setting {
	return Setting{
		Name:  name,
		Usage: usage,
		parse: func(v string) (any, error) {
			x, err := parse(v)
			if err != nil {
				return nil, fmt.Errorf("scenario: bad %s %q: %w", name, v, err)
			}
			return x, nil
		},
		apply: func(s *Spec, v any) error { return apply(s, v.(T)) },
	}
}

// topology marks a setting as shaping the network.
func topology(st Setting) Setting {
	st.Topology = true
	return st
}

// intAtLeast parses an integer no smaller than lo.
func intAtLeast(lo int) func(string) (int, error) {
	return func(v string) (int, error) {
		n, err := strconv.Atoi(v)
		if err != nil || n < lo {
			return 0, fmt.Errorf("want an integer >= %d", lo)
		}
		return n, nil
	}
}

// number parses a finite number that ok accepts; want names the range.
func number(want string, ok func(float64) bool) func(string) (float64, error) {
	return func(v string) (float64, error) {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) || !ok(x) {
			return 0, fmt.Errorf("want %s", want)
		}
		return x, nil
	}
}

var (
	positive    = number("a number > 0", func(x float64) bool { return x > 0 })
	nonNegative = number("a number >= 0", func(x float64) bool { return x >= 0 })
	fraction    = number("a number in [0,1)", func(x float64) bool { return x >= 0 && x < 1 })
)

// registered parses a registry name, case-insensitively; the none
// spellings map to none.
func registered[T any](get func(string) (T, error), isNone func(string) bool, none string) func(string) (string, error) {
	return func(v string) (string, error) {
		v = strings.ToLower(v)
		if isNone(v) {
			return none, nil
		}
		_, err := get(v)
		return v, err
	}
}

// mobilityOption is a setting that tunes the spec's mobility block,
// which must exist.
func mobilityOption(name, usage string, field func(*Mobility) *float64) Setting {
	return setting(name, usage, positive, func(s *Spec, v float64) error {
		if s.Mobility == nil {
			return fmt.Errorf("scenario: %s needs a mobility model (set mobility, or a mobility block in the file)", name)
		}
		*field(s.Mobility) = v
		return nil
	})
}

// Settings is the setting table, in application order: the topology
// before the default flows sized from it, mode before the controller
// that clears it, and the mobility model before the speed and pause
// that tune it.
var Settings = []Setting{
	topology(setting("topology", topologyNames(),
		func(v string) (string, error) {
			if _, ok := topologies[v]; !ok {
				return "", fmt.Errorf("want %s", topologyNames())
			}
			return v, nil
		},
		func(s *Spec, v string) error { s.Topology.Kind = v; return nil })),
	topology(setting("hops", "chain length", intAtLeast(1), func(s *Spec, n int) error { s.Topology.Hops = n; return nil })),
	topology(setting("grid-w", "grid width", intAtLeast(1), func(s *Spec, n int) error { s.Topology.Width = n; return nil })),
	topology(setting("grid-h", "grid height", intAtLeast(1), func(s *Spec, n int) error { s.Topology.Height = n; return nil })),
	topology(setting("nodes", "random-disk node count", intAtLeast(2), func(s *Spec, n int) error { s.Topology.Nodes = n; return nil })),
	topology(setting("radius", "random-disk radius in metres, 0 = auto", nonNegative, func(s *Spec, r float64) error { s.Topology.Radius = r; return nil })),
	topology(setting("edge-loss", "random-disk edge-of-range loss ceiling in [0,1)", fraction, func(s *Spec, l float64) error { s.Topology.EdgeLoss = l; return nil })),
	setting("mode", "802.11|ezflow|penalty|diffq", ParseMode,
		func(s *Spec, m ezflow.Mode) error {
			s.Mode, s.Controller = m.ControllerName(), "" // ParseMode reads "" as 802.11
			return nil
		}),
	setting("controller", ctl.Registry.List()+"|802.11; 802.11 deploys none",
		registered(ctl.Registry.Get, ctl.IsNone, "802.11"),
		func(s *Spec, c string) error {
			s.Mode, s.Controller = "", c
			if ctl.IsNone(c) {
				s.Controller = ""
			}
			return nil
		}),
	setting("routing", routing.Registry.List(),
		registered(routing.Registry.Get, func(v string) bool { return v == "" }, ""),
		func(s *Spec, r string) error { s.Routing = r; return nil }),
	setting("mobility", mobility.NamesList()+"; a model inherits the file's speed, pause and tick, off drops the block",
		registered(mobility.Registry.Get, mobility.IsOff, "off"),
		func(s *Spec, m string) error {
			switch {
			case m == "off":
				s.Mobility = nil
			case s.Mobility == nil:
				s.Mobility = &Mobility{Model: m}
			default:
				s.Mobility.Model = m
				if m != "trace" {
					s.Mobility.TraceFile = "" // bound to the old model
				}
			}
			return nil
		}),
	mobilityOption("speed", "waypoint speed in m/s", func(m *Mobility) *float64 { return &m.SpeedMps }),
	mobilityOption("pause", "waypoint dwell in seconds", func(m *Mobility) *float64 { return &m.PauseSec }),
	setting("clients", "gateway client population; resizes the workload block, or adds a downlink one", intAtLeast(1),
		func(s *Spec, n int) error {
			if s.Workload == nil {
				s.Workload = &ezflow.WorkloadSpec{}
			}
			s.Workload.Clients = n
			return nil
		}),
	setting("rate", "per-flow rate in bit/s; the tree keeps its per-leaf flows", positive,
		func(s *Spec, r float64) error {
			if len(s.Flows) == 0 {
				s.Flows = s.Topology.defaultFlows()
			}
			for i := range s.Flows {
				s.Flows[i].RateBps = r
			}
			return nil
		}),
	setting("cap", "hardware CWmin cap, 0 = none", intAtLeast(0), func(s *Spec, c int) error { s.CWCap = c; return nil }),
	setting("seed", "random seed", func(v string) (int64, error) { return strconv.ParseInt(v, 10, 64) }, func(s *Spec, n int64) error { s.Seed = n; return nil }),
	setting("duration", "simulated seconds", positive, func(s *Spec, d float64) error { s.DurationSec = d; return nil }),
}

// LookupSetting finds a setting by name.
func LookupSetting(name string) (Setting, bool) {
	i := slices.IndexFunc(Settings, func(st Setting) bool { return st.Name == name })
	if i < 0 {
		return Setting{}, false
	}
	return Settings[i], true
}

// ParseSetting parses and validates one setting's value without applying
// it. The value is an int, int64, float64, string or ezflow.Mode, as the
// setting takes; registry names come back lower-cased, with the none
// spellings as "802.11" (controller) and "off" (mobility).
func ParseSetting(name, value string) (any, error) {
	if st, ok := LookupSetting(name); ok {
		return st.parse(value)
	}
	return nil, fmt.Errorf("scenario: unknown setting %q", name)
}

// Apply parses every named setting before writing any, then writes them
// into s in table order, whatever the map's order, and validates the
// result.
func (s *Spec) Apply(values map[string]string) error {
	parsed := make(map[string]any, len(values))
	for _, name := range slices.Sorted(maps.Keys(values)) {
		x, err := ParseSetting(name, values[name])
		if err != nil {
			return err
		}
		parsed[name] = x
	}
	for _, st := range Settings {
		if x, ok := parsed[st.Name]; ok {
			if err := st.apply(s, x); err != nil {
				return err
			}
		}
	}
	return s.Validate()
}
