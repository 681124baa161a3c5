// Package registry is the name-keyed plug-in table behind the
// controller (internal/ctl), routing-strategy (internal/routing) and
// mobility-model (internal/mobility) registries; every unknown-name
// error comes from Get.
package registry

import (
	"fmt"
	"sort"
	"strings"
)

// Registry maps names to values of one plug-in kind.
type Registry[T any] struct {
	kind    string
	valid   func(T) bool
	entries map[string]entry[T]
}

type entry[T any] struct {
	summary string
	value   T
}

// New returns an empty registry. kind names the plug-in family in panics
// and errors ("controller", "routing strategy"); valid rejects malformed
// values at registration (for example a nil constructor).
func New[T any](kind string, valid func(T) bool) *Registry[T] {
	return &Registry[T]{kind: kind, valid: valid, entries: map[string]entry[T]{}}
}

// Register adds a value under name with a one-line summary for help
// text. It panics on an empty name, a duplicate, or a value valid
// rejects — registration bugs must fail at init.
func (r *Registry[T]) Register(name, summary string, v T) {
	switch {
	case name == "":
		panic("registry: " + r.kind + " registered with an empty name")
	case !r.valid(v):
		panic("registry: " + r.kind + " " + name + " is malformed")
	}
	if _, dup := r.entries[name]; dup {
		panic("registry: duplicate " + r.kind + " " + name)
	}
	r.entries[name] = entry[T]{summary, v}
}

// Lookup returns the value registered under name.
func (r *Registry[T]) Lookup(name string) (T, bool) {
	e, ok := r.entries[name]
	return e.value, ok
}

// Get is Lookup with the unknown-name error every caller reports.
func (r *Registry[T]) Get(name string) (T, error) {
	e, ok := r.entries[name]
	if !ok {
		return e.value, fmt.Errorf("unknown %s %q (registered: %s)", r.kind, name, r.List())
	}
	return e.value, nil
}

// Names returns every registered name, sorted.
func (r *Registry[T]) Names() []string {
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// List renders the names as "a|b|c" for flag usage strings.
func (r *Registry[T]) List() string { return strings.Join(r.Names(), "|") }

// Usage renders one "name summary" line per entry, for CLI help text.
func (r *Registry[T]) Usage() string {
	var b strings.Builder
	for i, n := range r.Names() {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "  %-12s %s", n, r.entries[n].summary)
	}
	return b.String()
}
