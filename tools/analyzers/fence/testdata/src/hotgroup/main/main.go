// Package main is in scope: a daemon handler reads the release's grouping
// off the cycle's result instead of regrouping the release.
package main

type dataset struct{}

type result struct {
	Dataset      *dataset
	MinGroupSize int
}

var mdb mdbAPI

type mdbAPI struct{}

func (mdbAPI) Frequencies(d *dataset, idx []int, sem int) []int { return nil }

func handleAnonymize(res *result, qi []int) int {
	minGroup := 0
	for i, f := range mdb.Frequencies(res.Dataset, qi, 0) { // want `mdb\.Frequencies in handleAnonymize: internal/risk owns grouping`
		if i == 0 || f < minGroup {
			minGroup = f
		}
	}
	return minGroup
}

func handleAnonymizeFromResult(res *result) int {
	return res.MinGroupSize
}

func verifyRelease(res *result, qi []int) []int {
	return mdb.Frequencies(res.Dataset, qi, 0) //hotgroup:ok one-time release verification
}

func main() {}
