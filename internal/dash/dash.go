// Package dash models Dynamic Adaptive Streaming over HTTP (§2.2): a
// chunked video ladder, adaptive bit-rate selection, and the client
// player buffer state machine whose ON-OFF request pattern produces the
// idle periods — and consequent congestion-window resets — at the heart
// of the paper's analysis.
package dash

import (
	"fmt"
	"time"
)

// Representation is one encoding of the video (paper Table 1).
type Representation struct {
	// Name is the resolution label ("1080p").
	Name string
	// Mbps is the encoding bit rate in megabits per second.
	Mbps float64
}

// StandardLadder reproduces paper Table 1: the six YouTube-style
// representations from 144p to 1080p.
var StandardLadder = []Representation{
	{Name: "144p", Mbps: 0.26},
	{Name: "240p", Mbps: 0.64},
	{Name: "360p", Mbps: 1.00},
	{Name: "480p", Mbps: 1.60},
	{Name: "760p", Mbps: 4.14},
	{Name: "1080p", Mbps: 8.47},
}

// IdealBitrateMbps returns the paper's definition of the ideal average
// bit rate for a streaming workload: the minimum of the aggregate
// bandwidth and the top representation's rate (§3.1).
func IdealBitrateMbps(aggregateBandwidthMbps float64, ladder []Representation) float64 {
	top := ladder[len(ladder)-1].Mbps
	if aggregateBandwidthMbps < top {
		return aggregateBandwidthMbps
	}
	return top
}

// highestSustainable returns the index of the best representation whose
// rate does not exceed the given bandwidth (at least index 0).
func highestSustainable(ladder []Representation, mbps float64) int {
	best := 0
	for i, r := range ladder {
		if r.Mbps <= mbps {
			best = i
		}
	}
	return best
}

// chunkBytes returns the size of one chunk of the given representation.
func chunkBytes(r Representation, chunkSeconds float64) int64 {
	b := int64(r.Mbps * 1e6 * chunkSeconds / 8)
	if b < 1 {
		b = 1
	}
	return b
}

// playerState is the player's buffer state machine phase.
type playerState int

const (
	// initialBuffering: filling the buffer before/at session start.
	initialBuffering playerState = iota
	// steady: ON-OFF chunk fetching with playback running.
	steady
	// rebuffering: playback stalled, refilling to the resume threshold.
	rebuffering
	// finished: all chunks downloaded.
	finished
)

func (s playerState) String() string {
	switch s {
	case initialBuffering:
		return "initial-buffering"
	case steady:
		return "steady"
	case rebuffering:
		return "rebuffering"
	case finished:
		return "finished"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ChunkRecord captures one chunk download.
type ChunkRecord struct {
	Index          int
	Rep            Representation
	Bytes          int64
	RequestedAt    time.Duration
	CompletedAt    time.Duration
	ThroughputMbps float64
	// LastPacketDiff is the time difference between the last packets on
	// the two subflows for this chunk (Figure 5); valid when BothPaths.
	LastPacketDiff time.Duration
	BothPaths      bool
}

// Result aggregates a streaming session.
type Result struct {
	Chunks        []ChunkRecord
	Rebuffers     int
	StallTime     time.Duration
	DownloadTrace []TracePoint // cumulative bytes over time (Figure 1)
}

// TracePoint is one cumulative-download sample.
type TracePoint struct {
	At    time.Duration
	Bytes int64
}

// AvgBitrateMbps returns the mean encoding rate over downloaded chunks —
// the paper's "average video bit rate".
func (r *Result) AvgBitrateMbps() float64 {
	if len(r.Chunks) == 0 {
		return 0
	}
	var sum float64
	for _, c := range r.Chunks {
		sum += c.Rep.Mbps
	}
	return sum / float64(len(r.Chunks))
}

// AvgThroughputMbps returns the mean per-chunk download throughput — the
// "measured throughput" of Figures 6 and 16.
func (r *Result) AvgThroughputMbps() float64 {
	if len(r.Chunks) == 0 {
		return 0
	}
	var sum float64
	for _, c := range r.Chunks {
		sum += c.ThroughputMbps
	}
	return sum / float64(len(r.Chunks))
}

// ChunkThroughputsMbps returns the per-chunk series (Figure 17).
func (r *Result) ChunkThroughputsMbps() []float64 {
	out := make([]float64, len(r.Chunks))
	for i, c := range r.Chunks {
		out[i] = c.ThroughputMbps
	}
	return out
}

// LastPacketDiffs returns the per-chunk last-packet time differences
// where both paths carried data (Figure 5).
func (r *Result) LastPacketDiffs() []time.Duration {
	var out []time.Duration
	for _, c := range r.Chunks {
		if c.BothPaths {
			out = append(out, c.LastPacketDiff)
		}
	}
	return out
}
