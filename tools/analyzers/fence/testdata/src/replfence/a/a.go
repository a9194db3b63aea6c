package stream

// Fixture mirroring the shapes the replfence pass must accept and reject.

type publishPayload struct {
	Release int
	File    string
	Digest  string
}

type Stream struct{}

func (s *Stream) checkFence() error                    { return nil }
func (s *Stream) appendPublish(p publishPayload) error { return nil }

// fencedPublish consults the epoch fence before committing: the protocol's
// shape — a demoted primary must fail here, never publish.
func (s *Stream) fencedPublish(p publishPayload) error {
	if err := s.checkFence(); err != nil {
		return err
	}
	return s.appendPublish(p)
}

// unfencedPublish commits a publication no fence guarded: the split-brain
// bug this pass exists for.
func (s *Stream) unfencedPublish(rel int) error {
	return s.appendPublish(publishPayload{Release: rel}) // want `publish record journaled without an epoch-fence check in unfencedPublish`
}

// hookPublish uses the raw fence hook instead of the wrapper; both count.
func (s *Stream) hookPublish(p publishPayload, fence func() error) error {
	if err := FenceCheck(fence); err != nil {
		return err
	}
	return s.appendPublish(p)
}

// FenceCheck stands in for the options hook the real package threads.
func FenceCheck(f func() error) error {
	if f == nil {
		return nil
	}
	return f()
}

// callerFenced relies on its caller's fence check; the annotation records
// that transfer of responsibility.
func (s *Stream) callerFenced(p publishPayload) error {
	//replfence:ok — every caller holds the fence across this helper
	return s.appendPublish(p)
}

func (s *Stream) inlineAnnotated(p publishPayload) error {
	return s.appendPublish(p) //replfence:ok fence held by completePending
}

//replfence:ok leftover waiver, publish was removed // want `stale //replfence:ok waiver`
func (s *Stream) noPublish(p publishPayload) error {
	return nil
}
