package dist

// Fixture mirroring the shapes the distfence pass must accept and reject.

type Reply struct {
	Seq    int
	Epoch  uint64
	Values []float64
}

type taskState struct{ done bool }

type supervisor struct{}

func (s *supervisor) admit(task *taskState, r Reply, n int) bool {
	return len(r.Values) == n //distfence:ok admit is the fence itself
}

// fencedHandler consumes values only after admit: fine.
func (s *supervisor) fencedHandler(task *taskState, r Reply, out []float64) {
	if !s.admit(task, r, len(out)) {
		return
	}
	copy(out, r.Values)
}

// bypassHandler copies reply values straight into the merge: the bug this
// pass exists for.
func bypassHandler(r Reply, out []float64) {
	copy(out, r.Values) // want `reply Values consumed outside the admit fence in bypassHandler`
}

func alsoBypasses(r Reply) float64 {
	return r.Values[0] // want `reply Values consumed outside the admit fence in alsoBypasses`
}

// workerSide produces values; it is upstream of the fence by design.
func workerSide(vals []float64) Reply {
	var r Reply
	//distfence:ok worker endpoint: produces values, never admits them
	r.Values = vals
	return r
}

func truncating(r Reply) Reply {
	r.Values = r.Values[:len(r.Values)/2] //distfence:ok fault injector, upstream of the fence
	return r
}

//distfence:ok leftover waiver, the Values touch was removed // want `stale //distfence:ok waiver`
func noTouch(r Reply) int {
	return r.Epoch
}
