package notdist

// Other packages may name fields Values freely; the invariant is scoped to
// package dist.

type Reply struct{ Values []float64 }

func fine(r Reply) []float64 {
	return r.Values
}
