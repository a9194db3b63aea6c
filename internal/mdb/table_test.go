package mdb

import (
	"fmt"
	"math/rand"
	"testing"
)

// A code table groups its column selections from codes alone: with every
// constant of the dataset overwritten by one sentinel after the table is
// built, each selection's infos, frequencies among them, equal ComputeGroups
// over the same attributes of an unpoisoned twin, bit for bit, under both
// semantics, on tables with nulls.
func TestCodeTableGroupsFromCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for _, sem := range []Semantics{MaybeMatch, StandardNulls} {
		for trial := 0; trial < 4; trial++ {
			d := maskedDataset(rng, 200, 4, 2+trial, 0.1*float64(trial))
			qi := d.QuasiIdentifiers()
			twin := d.Clone()
			table := NewCodeTable(d, qi, sem)
			for _, r := range d.Rows {
				for i, v := range r.Values {
					if !v.IsNull() {
						r.Values[i] = Const("poison")
					}
				}
			}
			for mask := 1; mask < 1<<len(qi); mask++ {
				var sel, attrs []int
				for j, a := range qi {
					if mask&(1<<j) != 0 {
						sel, attrs = append(sel, j), append(attrs, a)
					}
				}
				label := fmt.Sprintf("%s trial %d columns %v", sem, trial, sel)
				sameInfoBits(t, label, table.Group(sel), ComputeGroups(twin, attrs, sem))
			}
		}
	}
}
