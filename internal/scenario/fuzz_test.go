package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse hammers the scenario JSON loader with arbitrary bytes: it
// must reject garbage with an error, never panic, and anything it
// accepts must be stable under a second Validate. The corpus seeds from
// the repository's example scenarios plus the minimal valid documents,
// so mutation starts from realistic structure.
func FuzzParse(f *testing.F) {
	for _, p := range []string{
		filepath.Join("..", "..", "examples", "linkfailure", "linkfailure.json"),
		filepath.Join("..", "..", "examples", "routing", "randomdisk.json"),
		filepath.Join("..", "..", "examples", "mobility", "waypoint.json"),
	} {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(`{"topology":{"kind":"chain","n":4}}`))
	f.Add([]byte(`{"topology":{"kind":"grid"},"mobility":{"model":"waypoint","speed_mps":10},"workload":{"clients":5,"on_mean_sec":2,"off_mean_sec":3}}`))
	f.Add([]byte(`{"topology":{"kind":"grid"},"mode":"ezflow","duration_sec":10}`))
	f.Add([]byte(`{"topology":{"kind":"random","n":9},"flows":[{"src":0,"dst":5}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("Parse returned nil spec with nil error")
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec fails re-validation: %v", err)
		}
	})
}

// FuzzApply hammers the setting table, which parses CLI flags and HTTP
// campaign submissions, with arbitrary (name, value) pairs applied to
// the example specs: Apply must return an error or leave a spec that
// passes Validate, must never panic, and must never touch the spec it
// was given a clone of.
func FuzzApply(f *testing.F) {
	specs := []*Spec{
		{Topology: Topology{Kind: "chain"}, Mode: "ezflow"},
		{Topology: Topology{Kind: "tree"}},
		{Topology: Topology{Kind: "grid", Width: 1, Height: 3}},
	}
	for _, p := range []string{
		filepath.Join("..", "..", "examples", "linkfailure", "linkfailure.json"),
		filepath.Join("..", "..", "examples", "routing", "randomdisk.json"),
		filepath.Join("..", "..", "examples", "mobility", "waypoint.json"),
	} {
		s, err := Load(p)
		if err != nil {
			f.Fatal(err)
		}
		specs = append(specs, s)
	}
	for _, st := range Settings {
		f.Add(st.Name, "1", "mobility", "waypoint")
	}
	f.Add("speed", "3", "mobility", "off")
	f.Add("controller", "802.11", "mode", "penalty")
	f.Add("rate", "5e5", "grid-w", "2")
	f.Add("duration", "NaN", "hops", "9223372036854775807")
	f.Add("nodes", "4097", "topology", "random")
	f.Fuzz(func(t *testing.T, name, value, name2, value2 string) {
		for _, orig := range specs {
			before := orig.Clone()
			s := orig.Clone()
			err := s.Apply(map[string]string{name: value, name2: value2})
			if !reflect.DeepEqual(orig, before) {
				t.Fatalf("Apply(%s=%q, %s=%q) modified the spec it cloned", name, value, name2, value2)
			}
			if err != nil {
				continue
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("Apply(%s=%q, %s=%q) accepted a spec that fails Validate: %v", name, value, name2, value2, err)
			}
			if _, err := s.Config(); err != nil {
				t.Fatalf("Apply(%s=%q, %s=%q): Config: %v", name, value, name2, value2, err)
			}
		}
	})
}
