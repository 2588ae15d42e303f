// Package tcp models a single MPTCP subflow at packet level: a sender
// with Linux-style RTT estimation, slow start / congestion avoidance,
// fast retransmit, retransmission timeouts with backoff, and the
// idle-restart congestion-window reset (RFC 2861) whose interaction with
// path heterogeneity is the root cause the paper identifies.
package tcp

import "time"

// RTO clamp range, Linux's defaults.
const (
	minRTO = 200 * time.Millisecond
	maxRTO = 120 * time.Second
)

// RTTEstimator implements RFC 6298 smoothing. Its one deviation
// estimate, rttvar, is both the 4·rttvar term of the RTO and the σ the
// ECF scheduler needs. The zero value is ready: no samples, a 1 s RTO.
type RTTEstimator struct {
	srtt   time.Duration
	rttvar time.Duration
	// samples counts RTT measurements taken.
	samples int64
	// min is the smallest measurement seen (propagation-delay estimate).
	min time.Duration
	// ring holds the most recent measurements for recentMin (HyStart
	// uses the min of the last few samples to ignore self-induced burst
	// queueing).
	ring [8]time.Duration
}

// Reset returns the estimator to its zero value.
func (e *RTTEstimator) Reset() { *e = RTTEstimator{} }

// sample folds one RTT measurement into the estimate.
func (e *RTTEstimator) sample(rtt time.Duration) {
	if rtt <= 0 {
		rtt = time.Microsecond
	}
	e.samples++
	e.ring[e.samples%int64(len(e.ring))] = rtt
	if e.min == 0 || rtt < e.min {
		e.min = rtt
	}
	if e.samples == 1 {
		e.srtt = rtt
		e.rttvar = rtt / 2
		return
	}
	// RFC 6298: srtt = 7/8 srtt + 1/8 rtt; rttvar = 3/4 var + 1/4 |err|.
	err := rtt - e.srtt
	if err < 0 {
		err = -err
	}
	e.srtt += (rtt - e.srtt) / 8
	e.rttvar += (err - e.rttvar) / 4
}

// Srtt returns the smoothed RTT, or 0 before the first sample.
func (e *RTTEstimator) Srtt() time.Duration { return e.srtt }

// StdDev returns the RTT variation estimate, rttvar, which ECF uses as σ
// in its scheduling inequalities.
func (e *RTTEstimator) StdDev() time.Duration { return e.rttvar }

// Samples returns the number of measurements folded in.
func (e *RTTEstimator) Samples() int64 { return e.samples }

// Min returns the smallest measurement seen, a propagation-delay
// estimate used by the HyStart-style slow-start exit.
func (e *RTTEstimator) Min() time.Duration { return e.min }

// recentMin returns the smallest of the last eight measurements (the
// full-ring minimum once eight samples exist). Bursty senders inflate
// individual samples with their own serialization; the windowed minimum
// sees past that, as HyStart's design does.
func (e *RTTEstimator) recentMin() time.Duration {
	n := e.samples
	if n > int64(len(e.ring)) {
		n = int64(len(e.ring))
	}
	if n == 0 {
		return 0
	}
	min := time.Duration(0)
	for i := int64(0); i < int64(len(e.ring)); i++ {
		v := e.ring[i]
		if v == 0 {
			continue
		}
		if min == 0 || v < min {
			min = v
		}
	}
	return min
}

// rto returns srtt + 4·rttvar clamped to [minRTO, maxRTO]; before any
// sample it returns 1 s (RFC 6298 §2.1).
func (e *RTTEstimator) rto() time.Duration {
	if e.samples == 0 {
		return time.Second
	}
	rto := e.srtt + 4*e.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}
