package fence

import (
	"path/filepath"
	"testing"

	"vadasa/tools/analyzers/analysis"
	"vadasa/tools/analyzers/checktest"
)

// Each rule runs over its own fixture pair: package a holds the shapes the
// rule must accept, reject and waive (stale waivers included); package b is
// another package using the same names, which the rule must leave alone.
func TestRules(t *testing.T) {
	for _, a := range []*analysis.Analyzer{Hotgroup, Pairscan, Replfence, Streamfence} {
		for _, pkg := range []string{"a", "b"} {
			t.Run(a.Name+"/"+pkg, func(t *testing.T) {
				checktest.Run(t, filepath.Join("testdata", "src", a.Name, pkg), a)
			})
		}
	}
}
