package stream

// Fixture mirroring the shapes the streamfence pass must accept and reject.

type intentPayload struct {
	Release int
	Digest  string
}

type publishPayload struct {
	Release int
	File    string
	Digest  string
}

type Stream struct{}

func (s *Stream) appendIntent(p intentPayload) error   { return nil }
func (s *Stream) appendPublish(p publishPayload) error { return nil }

// release journals the intent before the publish: the protocol's shape.
func (s *Stream) release(p intentPayload) error {
	if err := s.appendIntent(p); err != nil {
		return err
	}
	return s.appendPublish(publishPayload{Release: p.Release, Digest: p.Digest})
}

// hastyPublish commits a publication no intent promised: the bug this pass
// exists for.
func (s *Stream) hastyPublish(rel int) error {
	return s.appendPublish(publishPayload{Release: rel}) // want `publish record journaled without an intent in hastyPublish`
}

// completer fulfils an intent journaled by an earlier incarnation; the
// annotation records that the pairing happened across the crash.
func (s *Stream) completer(p intentPayload) error {
	//streamfence:ok — completes a previously journaled intent
	return s.appendPublish(publishPayload{Release: p.Release, Digest: p.Digest})
}

func (s *Stream) inlineAnnotated(p intentPayload) error {
	return s.appendPublish(publishPayload{Release: p.Release}) //streamfence:ok recovery path
}

// A waiver with nothing to excuse is itself flagged: the escape hatch must
// not outlive the code it covered.
//
//streamfence:ok leftover waiver, publish was removed // want `stale //streamfence:ok waiver`
func (s *Stream) cleanIntentOnly(p intentPayload) error {
	return s.appendIntent(p)
}
