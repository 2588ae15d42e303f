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

// rttEstimator implements RFC 6298 smoothing. Its one deviation
// estimate, rttvar, is both the 4·rttvar term of the RTO and the σ the
// ECF scheduler needs. The zero value is ready: no samples, a 1 s RTO.
type rttEstimator struct {
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

// sample folds one RTT measurement into the estimate.
func (e *rttEstimator) sample(rtt time.Duration) {
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

// recentMin returns the smallest of the last eight measurements (the
// full-ring minimum once eight samples exist). Bursty senders inflate
// individual samples with their own serialization; the windowed minimum
// sees past that, as HyStart's design does.
func (e *rttEstimator) recentMin() time.Duration {
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
func (e *rttEstimator) rto() time.Duration {
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
