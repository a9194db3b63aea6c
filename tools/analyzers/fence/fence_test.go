package fence

import (
	"os"
	"path/filepath"
	"testing"

	"vadasa/tools/analyzers/analysis"
	"vadasa/tools/analyzers/checktest"
)

// Each rule runs over its own fixtures: package a holds the shapes the rule
// must accept, reject and waive (stale waivers included); package b is
// another package using the same names, which the rule must leave alone; any
// further directory is one more package in the rule's scope.
func TestRules(t *testing.T) {
	for _, a := range []*analysis.Analyzer{Hotgroup, Pairscan, Replfence, Streamfence} {
		dirs, err := os.ReadDir(filepath.Join("testdata", "src", a.Name))
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range dirs {
			t.Run(a.Name+"/"+pkg.Name(), func(t *testing.T) {
				checktest.Run(t, filepath.Join("testdata", "src", a.Name, pkg.Name()), a)
			})
		}
	}
}
