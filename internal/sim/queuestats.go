package sim

import "sync/atomic"

// designDepth is the deepest queue the sorted-slice event queue is built
// for. An insert costs one move per pending event due sooner than the new
// one, which beats a heap only while the queue stays shallow (see
// BenchmarkEventQueueChurn); a run that goes deeper is counted in
// QueueStats.DeepRuns, so the assumption fails a test instead of quietly
// costing time.
const designDepth = 32

// queueCounters is the per-run event-queue telemetry, flushed into the
// process totals by Reset (the pooled-lifecycle step every cell ends
// with). Depth is sampled after every insert.
type queueCounters struct {
	depthMax     uint64
	depthSum     uint64
	depthSamples uint64
}

// QueueStats aggregates event-queue telemetry across every engine run
// flushed so far. DepthMean is DepthSum/DepthSamples.
type QueueStats struct {
	// DepthMax is the deepest the queue got (pending events) across all
	// runs; DepthSum/DepthSamples accumulate one sample per scheduled
	// event for the mean.
	DepthMax     uint64
	DepthSum     uint64
	DepthSamples uint64
	// DeepRuns counts the runs whose queue went deeper than designDepth
	// (32) pending events. Unlike DepthMax it is a sum, so the difference
	// of two readings counts the runs in between.
	DeepRuns uint64
}

// DepthMean returns the mean queue depth over every sample, or 0 with
// no samples.
func (s QueueStats) DepthMean() float64 {
	if s.DepthSamples == 0 {
		return 0
	}
	return float64(s.DepthSum) / float64(s.DepthSamples)
}

var (
	totalDepthMax     atomic.Uint64
	totalDepthSum     atomic.Uint64
	totalDepthSamples atomic.Uint64
	totalDeepRuns     atomic.Uint64
)

// TotalQueueStats returns the process-wide queue telemetry, summed (and
// for the maximum, maxed) over every engine run flushed so far.
func TotalQueueStats() QueueStats {
	return QueueStats{
		DepthMax:     totalDepthMax.Load(),
		DepthSum:     totalDepthSum.Load(),
		DepthSamples: totalDepthSamples.Load(),
		DeepRuns:     totalDeepRuns.Load(),
	}
}

// atomicMax raises a into v if it is larger.
func atomicMax(v *atomic.Uint64, a uint64) {
	for {
		cur := v.Load()
		if a <= cur || v.CompareAndSwap(cur, a) {
			return
		}
	}
}

// flushQueueStats folds the run's counters into the process totals and
// zeroes them for the next run.
func (e *Engine) flushQueueStats() {
	q := &e.qstats
	if q.depthSamples != 0 {
		totalDepthSum.Add(q.depthSum)
		totalDepthSamples.Add(q.depthSamples)
		atomicMax(&totalDepthMax, q.depthMax)
	}
	if q.depthMax > designDepth {
		totalDeepRuns.Add(1)
	}
	*q = queueCounters{}
}
