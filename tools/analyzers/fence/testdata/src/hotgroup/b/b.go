// Package risk is outside the analyzer's scope: full regrouping is the
// reference implementation there.
package risk

type dataset struct{}

var mdb mdbAPI

type mdbAPI struct{}

func (mdbAPI) ComputeGroups(d *dataset, idx []int, sem int) []int { return nil }

func assess(d *dataset, qi []int) []int {
	return mdb.ComputeGroups(d, qi, 0) // not package anon: fine
}
