package jobs

import (
	"time"

	"vadasa/internal/anon"
)

// The journal framing (internal/journal) carries opaque JSON payloads; the
// schemas below are what jobs writes into them. Decisions travel in the form
// package anon owns (anon.DecisionRecord).

// startPayload is the first record of every job journal: everything needed
// to re-create the run after a crash, plus the input digest that guards
// against resuming over a dataset that changed on disk.
type startPayload struct {
	JobID   string    `json:"job_id"`
	Spec    Spec      `json:"spec"`
	Digest  string    `json:"digest"`
	Created time.Time `json:"created"`
}

// iterPayload is one committed cycle iteration — the unit of recovery.
type iterPayload struct {
	Iteration  int                   `json:"iteration"`
	Decisions  []anon.DecisionRecord `json:"decisions,omitempty"`
	Exhausted  []int                 `json:"exhausted,omitempty"`
	NewRisky   []int                 `json:"new_risky,omitempty"`
	RiskEvalNS int64                 `json:"risk_eval_ns"`
	AnonNS     int64                 `json:"anon_ns"`
}

// donePayload terminates a journal. Its presence is what recovery keys on: a
// journal without one describes a job that was still running when the
// process died, and must be re-queued.
type donePayload struct {
	State    State    `json:"state"`
	Error    string   `json:"error,omitempty"`
	Attempts int      `json:"attempts"`
	Outcome  *Outcome `json:"outcome,omitempty"`
}

func encodeCheckpoint(cp anon.Checkpoint) iterPayload {
	return iterPayload{
		Iteration:  cp.Iteration,
		Decisions:  anon.EncodeDecisions(cp.Decisions),
		Exhausted:  cp.Exhausted,
		NewRisky:   cp.NewRisky,
		RiskEvalNS: int64(cp.RiskEval),
		AnonNS:     int64(cp.Anon),
	}
}

func decodeCheckpoint(p iterPayload) (anon.Checkpoint, error) {
	decisions, err := anon.DecodeDecisions(p.Decisions)
	if err != nil {
		return anon.Checkpoint{}, err
	}
	return anon.Checkpoint{
		Iteration: p.Iteration,
		Decisions: decisions,
		Exhausted: p.Exhausted,
		NewRisky:  p.NewRisky,
		RiskEval:  time.Duration(p.RiskEvalNS),
		Anon:      time.Duration(p.AnonNS),
	}, nil
}
