package anon

import (
	"fmt"

	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// observe translates one iteration's committed decisions into deltas of the
// cycle's live risk view. Local suppressions are the cell→null transitions
// the view absorbs in place; any other method (global recoding rewrites
// arbitrarily many cells to constants there is no delta form for)
// invalidates it, forcing a rebuild at the next assessment. rowPos maps row
// IDs to positions, stable because the cycle never reorders rows.
func observe(view *risk.Live, work *mdb.Dataset, rowPos map[int]int, decisions []Decision) error {
	for _, dec := range decisions {
		if dec.Method != "local-suppression" {
			view.Invalidate()
			return nil
		}
		pos, ok := rowPos[dec.RowID]
		if !ok {
			return fmt.Errorf("anon: incremental: decision references unknown tuple %d", dec.RowID)
		}
		attr := work.AttrIndex(dec.Attr)
		if attr < 0 {
			return fmt.Errorf("anon: incremental: decision references unknown attribute %q", dec.Attr)
		}
		if err := view.Suppressed(pos, attr); err != nil {
			return fmt.Errorf("anon: incremental: %w", err)
		}
	}
	return nil
}
