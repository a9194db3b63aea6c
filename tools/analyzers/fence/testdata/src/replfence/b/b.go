package notreplicated

// Other packages may name functions appendPublish freely; the invariant is
// scoped to the packages that take part in replication (stream, replica).

type payload struct{}

func appendPublish(p payload) error { return nil }

func fine(p payload) error {
	return appendPublish(p)
}
