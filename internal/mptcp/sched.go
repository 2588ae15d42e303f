// Package mptcp implements the MPTCP connection layer: a connection-level
// send buffer with data sequence numbers (DSNs), subflow management, a
// pluggable path scheduler hook, a receive-side reorder buffer that
// measures out-of-order delay, and the opportunistic-retransmission and
// penalization mechanisms of Raiciu et al. (NSDI'12).
package mptcp

import "repro/internal/tcp"

// Scheduler decides which subflow carries the next segment. One Scheduler
// instance is bound to exactly one Conn (schedulers such as ECF keep
// per-connection hysteresis state).
type Scheduler interface {
	// Name identifies the scheduler ("minrtt", "ecf", "blest", "daps").
	Name() string
	// Select returns the subflow to send the next segment on, or nil to
	// send nothing now and wait for a better subflow to become available.
	// Implementations must only return subflows with CanSend() == true.
	Select(c *Conn) *tcp.Subflow
}

// SchedulerFactory builds a fresh Scheduler for each connection.
type SchedulerFactory func() Scheduler

// Resettable is implemented by schedulers that can be rebound to a new
// connection after an in-place reset. Reset must restore exactly the
// state the scheduler's factory would construct (dynamic state cleared,
// construction-time parameters kept), which is what lets the network
// pool scheduler instances across simulation cells instead of
// allocating one per connection. Schedulers that do not implement it
// are simply constructed fresh each time.
type Resettable interface {
	Scheduler
	Reset()
}
