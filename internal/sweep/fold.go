package sweep

import (
	"dspatch/internal/experiments"
	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

// CategoryResultFromPoints folds a campaign's non-baseline point records
// into the CategoryResult shape the Fig. 4/12/14/17 registry functions
// return. recs must be the stream's single-lane point records in canonical
// campaign order for a sweep whose axes are the given workloads (outermost)
// and a baseline-plus-pfs l2 axis (innermost): each run of len(pfs) records
// is then one workload cell, and experiments.FoldCategories pools the same
// ratio sequence the registry's figures do, so the folded result renders
// byte-identically. examples/campaign and the sweep tests share it to pin
// that equivalence.
func CategoryResultFromPoints(ws []trace.Workload, pfs []sim.PF, recs []PointRecord) experiments.CategoryResult {
	catOf := map[string]trace.Category{}
	for _, w := range ws {
		catOf[w.Name] = w.Category
	}
	var cats []trace.Category
	ratios := make([][]float64, len(pfs))
	for k, rec := range recs {
		i := k % len(pfs) // l2 is the innermost axis
		if i == 0 {
			cats = append(cats, catOf[rec.Point.Workloads[0]])
		}
		ratios[i] = append(ratios[i], rec.Speedup[0])
	}
	return experiments.FoldCategories(pfs, cats, ratios)
}
