package anon

type dataset struct{}

type mdbPkg struct{}

// The fixture fakes the mdb package surface with a package-scoped variable
// named mdb; the analyzer is AST-only and matches the selector shape.
var mdb mdbAPI

type mdbAPI struct{}

func (mdbAPI) ComputeGroups(d *dataset, idx []int, sem int) []int { return nil }
func (mdbAPI) Frequencies(d *dataset, idx []int, sem int) []int   { return nil }
func (mdbAPI) BuildGroupIndex(d *dataset, idx []int) *dataset     { return nil }

func (mdbAPI) NewCodeTable(d *dataset, idx []int, sem int) *dataset { return nil }

func hotPath(d *dataset, qi []int) []int {
	return mdb.ComputeGroups(d, qi, 0) // want `mdb\.ComputeGroups in hotPath: internal/risk owns grouping`
}

func alsoHot(d *dataset, qi []int) []int {
	fs := mdb.Frequencies(d, qi, 0) // want `mdb\.Frequencies in alsoHot: internal/risk owns grouping`
	return fs
}

func privateIndex(d *dataset, qi []int) *dataset {
	return mdb.BuildGroupIndex(d, qi) // want `mdb\.BuildGroupIndex in privateIndex: internal/risk owns grouping`
}

func privateTable(d *dataset, qi []int) *dataset {
	return mdb.NewCodeTable(d, qi, 0) // want `mdb\.NewCodeTable in privateTable: internal/risk owns grouping`
}

func coldPath(d *dataset, qi []int) []int {
	//hotgroup:ok one-time release verification, not the cycle
	return mdb.Frequencies(d, qi, 0)
}

func sameLineOK(d *dataset, qi []int) []int {
	return mdb.ComputeGroups(d, qi, 0) //hotgroup:ok memoized
}

type other struct{}

func (other) ComputeGroups(d *dataset, idx []int, sem int) []int { return nil }

func notMdb(d *dataset, qi []int) []int {
	var o other
	return o.ComputeGroups(d, qi, 0) // receiver is not mdb: fine
}

//hotgroup:ok leftover waiver, regroup was removed // want `stale //hotgroup:ok waiver`
func noRegroup(d *dataset, qi []int) []int {
	return qi
}
