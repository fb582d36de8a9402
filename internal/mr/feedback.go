package mr

import (
	"math"

	"repro/internal/simcost"
)

// Feedback is the §3.3 stop/expand policy of one sampled run: what the
// reducers' error tells the mappers once per round.
type Feedback struct {
	Sigma          float64 // stop once a round's mean error is within it
	InitialN, MaxN int64   // schedule: InitialN·2^round, capped at MaxN
}

// The modelled exchange of one round, poll-free: each partition writes
// one small replicated error file, each mapper seeks to and reads each.
const (
	errorFileBytes    = 24
	errorFileReplicas = 3
)

// Round rules on one completed round, in which every partition
// published its error (cvs, one per partition) to the run's mappers:
// it charges m the paper's error-file exchange for the round, then
// decides.
func (f Feedback) Round(round int, cvs []float64, target int64, mappers int, m *simcost.Metrics) (next int64, stop bool) {
	files, readers := int64(len(cvs)), int64(mappers)
	m.Charge(simcost.Snapshot{BytesWritten: files * errorFileBytes * errorFileReplicas,
		DiskSeeks: readers * files, BytesRead: readers * files * errorFileBytes})
	return f.decide(round, cvs, target)
}

// decide is the §3.3 policy, a pure function of one completed round:
// stop when the mean error is within Sigma, else expand to
// InitialN·2^round (keyed on the round, never on timing) capped at
// MaxN, and stop at the cap. NaN is a partition no key routes to and is
// skipped; +Inf (data, not yet trustworthy) keeps expanding, as does a
// round without any opinion.
func (f Feedback) decide(round int, cvs []float64, target int64) (next int64, stop bool) {
	sum, n := 0.0, 0
	for _, cv := range cvs {
		if !math.IsNaN(cv) {
			sum += cv
			n++
		}
	}
	if n > 0 && sum/float64(n) <= f.Sigma {
		return target, true
	}
	next = min(f.InitialN<<uint(min(round, 40)), f.MaxN) // MaxN clamps long before 2^40
	if next > target {
		return next, false
	}
	return target, target >= f.MaxN
}
