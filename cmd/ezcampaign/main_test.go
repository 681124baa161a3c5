package main

import (
	"go/parser"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"ezflow/internal/campaign"
)

// TestDocListsEveryAxis keeps the package doc's axis list in step with
// the sweep axes the -sweep usage string generates.
func TestDocListsEveryAxis(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	_, axes, _ := strings.Cut(doc, "Sweep axes")
	axes, _, _ = strings.Cut(axes, "\n\n")
	for _, line := range strings.Split(strings.TrimSpace(campaign.AxisUsage()), "\n") {
		name := strings.Fields(line)[0]
		if !regexp.MustCompile(`\b` + name + `\b`).MatchString(axes) {
			t.Errorf("package doc does not list the %q axis", name)
		}
	}
}
