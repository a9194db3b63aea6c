package anon

import (
	"fmt"

	"vadasa/internal/mdb"
)

// DecisionRecord is the journaled form of a Decision — the one record a job
// journal's iter payload and a stream WAL's anon payload both carry. Values
// travel in the textual form of mdb.Value.String (constants verbatim,
// labelled nulls as ⊥i) because mdb.Value is opaque to JSON; the journals
// stay greppable, and Replay re-observes the null ids on the way back.
type DecisionRecord struct {
	RowID        int     `json:"row"`
	Attr         string  `json:"attr"`
	Old          string  `json:"old"`
	New          string  `json:"new"`
	Method       string  `json:"method"`
	Risk         float64 `json:"risk"`
	Iteration    int     `json:"iter"`
	AffectedRows int     `json:"affected"`
}

// EncodeDecisions renders decisions in their journaled form.
func EncodeDecisions(ds []Decision) []DecisionRecord {
	if len(ds) == 0 {
		return nil
	}
	recs := make([]DecisionRecord, len(ds))
	for i, d := range ds {
		recs[i] = DecisionRecord{
			RowID:        d.RowID,
			Attr:         d.Attr,
			Old:          d.Old.String(),
			New:          d.New.String(),
			Method:       d.Method,
			Risk:         d.Risk,
			Iteration:    d.Iteration,
			AffectedRows: d.AffectedRows,
		}
	}
	return recs
}

// DecodeDecisions parses journaled decisions back. A suppression that
// journaled anything but a labelled null is refused here, before it can be
// replayed into a dataset.
func DecodeDecisions(recs []DecisionRecord) ([]Decision, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	// The scratch allocator only absorbs the Observe calls of explicit ⊥i
	// tokens; Replay observes the ids on the dataset they are written to.
	var scratch mdb.NullAllocator
	ds := make([]Decision, len(recs))
	for i, r := range recs {
		ds[i] = Decision{
			RowID:        r.RowID,
			Attr:         r.Attr,
			Old:          mdb.ParseValue(r.Old, &scratch),
			New:          mdb.ParseValue(r.New, &scratch),
			Method:       r.Method,
			Risk:         r.Risk,
			Iteration:    r.Iteration,
			AffectedRows: r.AffectedRows,
		}
		if r.Method == "local-suppression" && !ds[i].New.IsNull() {
			return nil, fmt.Errorf("anon: journaled suppression of tuple %d has non-null value %s", r.RowID, mdb.RedactString(r.New))
		}
	}
	return ds, nil
}

// Replay re-applies journaled decisions to d verbatim — labelled-null ids
// included, with the allocator advanced past them so nulls minted afterwards
// cannot collide — resolving each decision's row id through position. It is
// the only code that writes a journaled decision into a dataset, and it
// refuses a journal that does not describe d: an unknown row or attribute, a
// cell that does not hold the value the decision replaced (checked before a
// global recoding rewrites its column), a suppression to a constant, a
// recoding that touches another number of rows than it did when journaled.
func Replay(d *mdb.Dataset, decisions []Decision, position func(rowID int) (pos int, ok bool)) error {
	for _, dec := range decisions {
		pos, ok := position(dec.RowID)
		if !ok {
			return fmt.Errorf("anon: journaled decision for tuple %d, which the dataset does not hold", dec.RowID)
		}
		attr := d.AttrIndex(dec.Attr)
		if attr < 0 {
			return fmt.Errorf("anon: journaled decision for unknown attribute %q", dec.Attr)
		}
		row := d.Rows[pos]
		if row.Values[attr] != dec.Old {
			// Digests, not raw cells: enough to show the mismatch without
			// copying microdata into an error that reaches logs.
			return fmt.Errorf("anon: tuple %d %s holds %s, the journaled decision replaced %s",
				dec.RowID, dec.Attr, row.Values[attr].Redacted(), dec.Old.Redacted())
		}
		switch dec.Method {
		case "local-suppression":
			if !dec.New.IsNull() {
				return fmt.Errorf("anon: journaled suppression of tuple %d recorded a non-null value", dec.RowID)
			}
			row.Values[attr] = dec.New
		case "global-recoding":
			if dec.AffectedRows <= 1 {
				// Either per-tuple mode or a global roll-up whose value
				// only the triggering row carried — same single write.
				row.Values[attr] = dec.New
				break
			}
			n := 0
			for _, r := range d.Rows {
				if r.Values[attr] == dec.Old {
					r.Values[attr] = dec.New
					n++
				}
			}
			if n != dec.AffectedRows {
				return fmt.Errorf("anon: recoding %s %s touched %d rows, journal says %d — journal does not match this dataset",
					dec.Attr, dec.Old.Redacted(), n, dec.AffectedRows)
			}
		default:
			return fmt.Errorf("anon: journaled decision has unknown method %q", dec.Method)
		}
		if dec.New.IsNull() {
			d.Nulls.Observe(dec.New.NullID())
		}
	}
	return nil
}
