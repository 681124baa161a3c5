package scenario

import (
	"strings"
	"testing"
)

// TestControllerField covers the spec's controller selection: valid names
// reach the config, unknown names and mode+controller combinations are
// rejected with actionable errors.
func TestControllerField(t *testing.T) {
	spec, err := Parse([]byte(`{
		"topology": {"kind": "chain", "hops": 4},
		"controller": "backpressure",
		"duration_sec": 30,
		"flows": [{"id": 1, "rate_bps": 2e6}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg, _ := spec.Config(); cfg.Controller != "backpressure" {
		t.Errorf("Config().Controller = %q, want backpressure", cfg.Controller)
	}
	sc, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Ctl == nil {
		t.Error("built scenario deployed no controller")
	}

	if _, err := Parse([]byte(`{
		"topology": {"kind": "chain"},
		"controller": "warp-drive"
	}`)); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Errorf("unknown controller: got %v, want error listing the registry", err)
	}

	if _, err := Parse([]byte(`{
		"topology": {"kind": "chain"},
		"mode": "ezflow",
		"controller": "ezflow"
	}`)); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("mode+controller: got %v, want mutual-exclusion error", err)
	}
}
