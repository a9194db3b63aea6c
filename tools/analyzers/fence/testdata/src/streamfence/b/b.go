package notstream

// Other packages may name functions appendPublish freely; the invariant is
// scoped to package stream.

type payload struct{}

func appendPublish(p payload) error { return nil }

func fine(p payload) error {
	return appendPublish(p)
}
