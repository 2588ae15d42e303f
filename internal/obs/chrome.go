package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format's JSON
// Array Format (the subset Perfetto and chrome://tracing accept):
// instant events ph "i", counter samples ph "C", metadata ph "M".
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds of virtual time
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

const (
	tidEngine    = 0
	tidScheduler = 1
	tidDynamic   = 2 // links then subflows, first-seen order
)

// WriteChromeTrace exports the recorder's rings as Chrome trace-event
// JSON. Engine events land on the "engine" thread named via kindName
// (pass sim.KindName; nil falls back to numeric names), scheduler
// decisions on the "scheduler" thread, and each link/subflow gets its
// own thread plus a counter track (queue occupancy in bytes, cwnd in
// segments). Virtual time maps to the trace's microsecond timestamps.
func (r *CellRecorder) WriteChromeTrace(w io.Writer, kindName func(kind uint8) string) error {
	if kindName == nil {
		kindName = func(kind uint8) string { return fmt.Sprintf("kind-%d", kind) }
	}

	var events []chromeEvent
	nextTid := tidDynamic
	tids := map[string]int{}
	tid := func(label string) int {
		id, ok := tids[label]
		if !ok {
			id = nextTid
			nextTid++
			tids[label] = id
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
				Args: map[string]any{"name": label},
			})
		}
		return id
	}

	events = append(events,
		chromeEvent{
			Name: "process_name", Ph: "M", Pid: 1,
			Args: map[string]any{"name": fmt.Sprintf("cell %s/%d", r.Experiment, r.Cell)},
		},
		chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tidEngine,
			Args: map[string]any{"name": "engine"},
		},
		chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tidScheduler,
			Args: map[string]any{"name": "scheduler"},
		},
	)

	for _, ev := range r.Flight.Events() {
		name := "coalesced"
		if !ev.Coalesced {
			name = kindName(ev.Kind)
		}
		events = append(events, chromeEvent{
			Name: name, Ph: "i", Ts: usec(ev.At), Pid: 1, Tid: tidEngine, S: "t",
			Args: map[string]any{"ticket": ev.Ticket},
		})
	}

	for _, ev := range r.Packets.Events() {
		linkTid := tid("link " + ev.Link)
		events = append(events, chromeEvent{
			Name: ev.Op.String(), Ph: "i", Ts: usec(ev.At), Pid: 1, Tid: linkTid, S: "t",
			Args: map[string]any{
				"conn": ev.ConnID, "subflow": ev.SubflowID,
				"seq": ev.Seq, "dsn": ev.DSN, "size": ev.Size,
				"retransmit": ev.Retransmit,
			},
		})
		// The queue-occupancy counter track: sample after every hook
		// that changed (or observed) the accounting.
		events = append(events, chromeEvent{
			Name: "queue:" + ev.Link, Ph: "C", Ts: usec(ev.At), Pid: 1, Tid: linkTid,
			Args: map[string]any{"bytes": ev.QueuedBytes},
		})
	}

	for _, ev := range r.Subflows.Events() {
		sfTid := tid("subflow " + ev.Name)
		events = append(events, chromeEvent{
			Name: ev.Op.String(), Ph: "i", Ts: usec(ev.At), Pid: 1, Tid: sfTid, S: "t",
			Args: map[string]any{
				"seq": ev.Seq, "ack": ev.AckSeq,
				"ssthresh": ev.Ssthresh, "inflight": ev.InflightSegs,
				"srtt_us": usec(ev.Srtt),
			},
		})
		events = append(events, chromeEvent{
			Name: "cwnd:" + ev.Name, Ph: "C", Ts: usec(ev.At), Pid: 1, Tid: sfTid,
			Args: map[string]any{"segments": ev.Cwnd},
		})
	}

	decisions := r.Decisions.Events()
	for i := range decisions {
		d := &decisions[i]
		verdict := d.Chosen
		if verdict == "" {
			verdict = "none"
			if d.Wait {
				verdict = "wait"
			}
		}
		args := map[string]any{
			"reason": d.Reason, "conn": d.Conn,
			"head_dsn": d.HeadDSN, "transfer": d.Transfer,
			"backlog_bytes": d.BacklogBytes,
		}
		for _, c := range d.Candidates {
			args["cand:"+c.Name] = fmt.Sprintf("srtt=%v cwnd=%.1f inflight=%d avail=%d cansend=%v",
				c.Srtt, c.Cwnd, c.Inflight, c.Avail, c.CanSend)
		}
		if q := d.Ecf; q != nil {
			args["ecf"] = fmt.Sprintf("n=%.3f lhs=%.6f rhs=%.6f wait_test=%v guard=%.6f>=%.6f ok=%v used=%v hysteresis=%v",
				q.N, q.LHS, q.RHS, q.WaitTest, q.GuardLHS, q.GuardRHS, q.GuardOK, q.GuardUsed, q.Hysteresis)
		}
		if q := d.Blest; q != nil {
			args["blest"] = fmt.Sprintf("x=%.1f lambda=%.4f free=%.1f occupied=%.1f",
				q.X, q.Lambda, q.FreeBytes, q.OccupiedBytes)
		}
		events = append(events, chromeEvent{
			Name: d.Scheduler + ":" + verdict, Ph: "i", Ts: usec(d.At),
			Pid: 1, Tid: tidScheduler, S: "t", Args: args,
		})
	}

	// Metadata first, then timestamp order; the stable sort keeps
	// same-instant events in ring (i.e. dispatch) order.
	sort.SliceStable(events, func(i, j int) bool {
		mi, mj := events[i].Ph == "M", events[j].Ph == "M"
		if mi != mj {
			return mi
		}
		if mi {
			return false
		}
		return events[i].Ts < events[j].Ts
	})

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i := range events {
		if i > 0 {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteDecisionLog writes the scheduler decision ring as a plain-text
// per-transfer log: decisions are grouped under a header whenever the
// transfer they belong to changes, each line showing virtual time,
// verdict, the candidate set, and the scheduler-specific quantities.
func (r *CellRecorder) WriteDecisionLog(w io.Writer) error {
	bw := bufio.NewWriter(w)
	decisions := r.Decisions.Events()
	fmt.Fprintf(bw, "# decision log: cell %s/%d, %d decisions (%d dropped)\n",
		r.Experiment, r.Cell, r.Decisions.Total(), r.Decisions.Dropped())
	curTransfer := int64(-2)
	for i := range decisions {
		d := &decisions[i]
		if d.Transfer != curTransfer {
			curTransfer = d.Transfer
			if curTransfer < 0 {
				fmt.Fprintf(bw, "\n== no active transfer ==\n")
			} else {
				fmt.Fprintf(bw, "\n== transfer %d ==\n", curTransfer)
			}
		}
		verdict := "-> " + d.Chosen
		if d.Chosen == "" {
			verdict = "-> none"
			if d.Wait {
				verdict = "-> wait"
			}
		}
		fmt.Fprintf(bw, "%12v %s conn=%d dsn=%d backlog=%dB %s (%s)\n",
			d.At, d.Scheduler, d.Conn, d.HeadDSN, d.BacklogBytes, verdict, d.Reason)
		for _, c := range d.Candidates {
			fmt.Fprintf(bw, "%12s   %-10s srtt=%-10v sd=%-10v cwnd=%-6.1f inflight=%-3d avail=%-3d cansend=%v",
				"", c.Name, c.Srtt, c.StdDev, c.Cwnd, c.Inflight, c.Avail, c.CanSend)
			if c.Score != 0 {
				fmt.Fprintf(bw, " score=%.3f", c.Score)
			}
			fmt.Fprintln(bw)
		}
		if q := d.Ecf; q != nil {
			fmt.Fprintf(bw, "%12s   ecf: k=%.1f cwndF=%.1f cwndS=%.1f rttF=%.6fs rttS=%.6fs delta=%.6fs\n",
				"", q.K, q.CwndF, q.CwndS, q.RTTF, q.RTTS, q.Delta)
			fmt.Fprintf(bw, "%12s        eq1: n=%.3f beta=%.2f hysteresis=%v  %.6f < %.6f => wait_test=%v\n",
				"", q.N, q.Beta, q.Hysteresis, q.LHS, q.RHS, q.WaitTest)
			if q.GuardUsed {
				fmt.Fprintf(bw, "%12s        eq2: %.6f >= %.6f => guard_ok=%v\n",
					"", q.GuardLHS, q.GuardRHS, q.GuardOK)
			} else {
				fmt.Fprintf(bw, "%12s        eq2: disabled\n", "")
			}
		}
		if q := d.Blest; q != nil {
			fmt.Fprintf(bw, "%12s   blest: rttF=%.6fs rttS=%.6fs cwndF=%.1f x=%.1f lambda=%.4f free=%.1f occupied=%.1f\n",
				"", q.RTTF, q.RTTS, q.CwndF, q.X, q.Lambda, q.FreeBytes, q.OccupiedBytes)
		}
	}
	return bw.Flush()
}
