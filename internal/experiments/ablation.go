package experiments

import (
	"dspatch/internal/sim"
	"dspatch/internal/stats"
)

// AblationDelta measures one prefetcher configuration's geomean performance
// delta over the baseline on the memory-intensive sample — the harness for
// the design-choice ablations (compression on/off, dual vs single trigger,
// SPT sizing; see the README's experiment index). Baselines are memoized,
// so sweeping many variants re-simulates only the variant runs.
func AblationDelta(kind sim.PF, s Scale) float64 {
	runs := s.runPaired(singles(s.memIntensive(), s.stOptions()), []sim.PF{kind})
	return stats.GeomeanSpeedupPct(column(runs, 0, stRatio))
}
