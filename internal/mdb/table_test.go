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
				sameInfoBits(t, label, table.Group(sel), ComputeGroups(twin, attrs, sem), nil)
			}
		}
	}
}

// A code table follows a random suppression tape: after every step each
// column selection groups as ComputeGroups does on the dataset as it stands,
// and every column's counts equal a recount — per constant, and the nulls —
// under both semantics. Counts taken before the tape still hold the first
// recount.
func TestCodeTableFollowsSuppressions(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for _, sem := range []Semantics{MaybeMatch, StandardNulls} {
		for trial := 0; trial < 4; trial++ {
			d := maskedDataset(rng, 60+rng.Intn(60), 3, 2+trial, 0.1*float64(trial))
			qi := d.QuasiIdentifiers()
			table := NewCodeTable(d, qi, sem)
			first, recount := table.Counts(), d.Clone()
			sameCounts := func(label string, c *Counts, d *Dataset) {
				t.Helper()
				for j, a := range qi {
					nulls := 0
					per := map[Value]int{}
					for _, r := range d.Rows {
						if v := r.Values[a]; v.IsNull() {
							nulls++
						} else {
							per[v]++
						}
					}
					for _, v := range append(d.DistinctValues(a), "absent") {
						if n, gotNulls := c.Of(j, Const(v)); n != per[Const(v)] || gotNulls != nulls {
							t.Fatalf("%s: column %d value %s counts (%d, %d), recount (%d, %d)", label, j, RedactString(v), n, gotNulls, per[Const(v)], nulls)
						}
					}
					if n, _ := c.Of(j, d.Nulls.Fresh()); n != 0 {
						t.Fatalf("%s: column %d counts %d rows of a null", label, j, n)
					}
				}
			}
			for step := 0; step < 40; step++ {
				pos, a := rng.Intn(len(d.Rows)), qi[rng.Intn(len(qi))]
				d.Rows[pos].Values[a] = d.Nulls.Fresh()
				if err := table.SuppressCell(pos, a); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s trial %d step %d", sem, trial, step)
				for mask := 1; mask < 1<<len(qi); mask++ {
					var sel, attrs []int
					for j, a := range qi {
						if mask&(1<<j) != 0 {
							sel, attrs = append(sel, j), append(attrs, a)
						}
					}
					sameInfoBits(t, fmt.Sprintf("%s columns %v", label, sel), table.Group(sel), ComputeGroups(d, attrs, sem), nil)
				}
				sameCounts(label, table.Counts(), d)
			}
			sameCounts(fmt.Sprintf("%s trial %d before the tape", sem, trial), first, recount)
		}
	}
}
