package sched

import (
	"repro/internal/mptcp"
	"repro/internal/obs"
	"repro/internal/tcp"
)

// recordDecision builds the common part of a decision record — virtual
// time, connection identity, head-of-backlog DSN and owning transfer,
// the candidate set — and records it into the connection's recorder.
// mod, when non-nil, fills the scheduler-specific quantities. Callers
// guard with c.Recorder() != nil, so untraced cells never reach this.
// Every record is built fresh (candidates appended from nil, the
// quantities newly allocated by the caller), so the ring holds it as
// is: no later Select can reach it.
func recordDecision(c *mptcp.Conn, scheduler string,
	chosen *tcp.Subflow, wait bool, reason string, mod func(*obs.SchedDecision)) {
	d := obs.SchedDecision{
		At:           c.Now(),
		Scheduler:    scheduler,
		Conn:         c.ID(),
		HeadDSN:      -1,
		Transfer:     -1,
		BacklogBytes: c.UnsentBytes(),
		Wait:         wait,
		Reason:       reason,
	}
	if dsn, ok := c.NextUnsentDSN(); ok {
		d.HeadDSN = dsn
		if seq, ok := c.ActiveTransferSeq(dsn); ok {
			d.Transfer = seq
		}
	}
	for _, sf := range c.Subflows() {
		d.Candidates = append(d.Candidates, obs.SchedCandidate{
			Name:     sf.Name(),
			Srtt:     sf.Srtt(),
			StdDev:   sf.RTTStdDev(),
			Cwnd:     sf.CwndSegments(),
			Inflight: sf.InflightSegments(),
			Avail:    sf.AvailableCwndSegments(),
			CanSend:  sf.CanSend(),
		})
	}
	if chosen != nil {
		d.Chosen = chosen.Name()
	}
	if mod != nil {
		mod(&d)
	}
	c.Recorder().Decisions.Record(d)
}
