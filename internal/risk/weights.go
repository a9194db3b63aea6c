package risk

import (
	"fmt"
	"strconv"

	"vadasa/internal/mdb"
)

// EstimateWeights fills in sampling weights for a dataset that arrived
// without them, using the estimator Section 2.1 sketches: the weight of a
// tuple is the expected number of population entities sharing its
// quasi-identifier combination, estimated from the posterior distribution of
// combinations in the sample — i.e. populationScale × sample frequency,
// where populationScale is the inverse sampling fraction the data owner
// knows (e.g. 30 when the survey covers one in thirty companies).
//
// Row weights are set in place once every one passes mdb.CheckWeight; when
// the dataset has a Weight attribute, its column is updated too so the
// weights survive CSV round trips.
func EstimateWeights(d *mdb.Dataset, populationScale float64) error {
	if populationScale <= 0 {
		return fmt.Errorf("risk: population scale must be positive, got %g", populationScale)
	}
	qi := d.QuasiIdentifiers()
	if len(qi) == 0 {
		return fmt.Errorf("risk: dataset %q has no quasi-identifiers to estimate weights from", d.Name)
	}
	freqs := mdb.Frequencies(d, qi, mdb.MaybeMatch)
	for _, f := range freqs {
		if err := mdb.CheckWeight(populationScale * float64(f)); err != nil {
			return fmt.Errorf("risk: population scale %g times sample frequency %d: %v", populationScale, f, err)
		}
	}
	w := d.WeightIndex()
	for i, r := range d.Rows {
		weight := populationScale * float64(freqs[i])
		r.Weight = weight
		if w >= 0 {
			r.Values[w] = mdb.Const(strconv.FormatFloat(weight, 'g', -1, 64))
		}
	}
	return nil
}
