// Package attack is outside the analyzer's scope: linking a released tuple
// against an oracle is a compatibility test per pair by definition.
package attack

type value struct{}

var mdb mdbAPI

type mdbAPI struct{}

func (mdbAPI) CompatibleTuple(a, b []value, idx []int, sem int) bool { return true }

func link(released, oracle []value, idx []int) bool {
	return mdb.CompatibleTuple(released, oracle, idx, 0) // not risk, anon or stream: fine
}
