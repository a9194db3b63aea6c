package risk

type value struct{}

// The fixture fakes the mdb package surface with a package-scoped variable
// named mdb; the analyzer is AST-only and matches the selector shape.
var mdb mdbAPI

type mdbAPI struct{}

func (mdbAPI) CompatibleTuple(a, b []value, idx []int, sem int) bool { return true }
func (mdbAPI) Compatible(a, b value, sem int) bool                   { return true }

func scan(rows [][]value, idx []int) int {
	n := 0
	for _, r := range rows {
		for _, r2 := range rows {
			if mdb.CompatibleTuple(r, r2, idx, 0) { // want `mdb\.CompatibleTuple in scan: a compatibility test per pair of tuples`
				n++
			}
		}
	}
	return n
}

func boundedScan(pair [2]value) bool {
	//pairscan:ok one pair, chosen by the caller
	return mdb.Compatible(pair[0], pair[1], 0)
}

type matcher struct{}

func (matcher) Compatible(a, b value, sem int) bool { return false }

func notMdb(a, b value) bool {
	var m matcher
	return m.Compatible(a, b, 0) // receiver is not mdb: fine
}

//pairscan:ok leftover waiver, the scan was removed // want `stale //pairscan:ok waiver`
func noScan(rows [][]value) int {
	return len(rows)
}
