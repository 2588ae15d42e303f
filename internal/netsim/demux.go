package netsim

// Demux fans packets from a shared Link out to per-subflow receivers by
// (ConnID, SubflowID). This is what lets several MPTCP connections — the
// six persistent browser connections of §5.5, or the four subflows of
// §5.2.5 — contend for the same bottleneck links.
//
// Routing is a dense two-level table indexed by the IDs directly:
// connection and subflow IDs are small sequential integers (the network
// assigns them in creation order), so the per-packet route lookup is two
// bounds checks and two loads instead of a map access hashing a
// composite key — the demux sits on every delivered packet.
type Demux struct {
	routes  [][]Receiver // [connID][subflowID], nil = unrouted
	unknown int64
}

// NewDemux returns an empty demultiplexer.
func NewDemux() *Demux {
	return &Demux{}
}

// Reset drops every route and zeroes the unrouted counter while keeping
// the dense table's storage, so a pooled network re-registers its flows
// without re-growing the rows. A packet for any ID routes exactly as it
// would through a fresh Demux: unregistered flows are counted and
// dropped.
func (d *Demux) Reset() {
	for _, row := range d.routes {
		for i := range row {
			row[i] = nil
		}
	}
	d.unknown = 0
}

// Register installs the receiver for one flow, replacing any previous
// registration. IDs must be non-negative; the table grows to cover the
// largest registered ID.
func (d *Demux) Register(connID, subflowID int, r Receiver) {
	for len(d.routes) <= connID {
		d.routes = append(d.routes, nil)
	}
	row := d.routes[connID]
	for len(row) <= subflowID {
		row = append(row, nil)
	}
	row[subflowID] = r
	d.routes[connID] = row
}

// unregister removes a flow's route.
func (d *Demux) unregister(connID, subflowID int) {
	if connID < len(d.routes) && subflowID < len(d.routes[connID]) {
		d.routes[connID][subflowID] = nil
	}
}

// Unrouted returns the count of packets that arrived for unknown flows.
func (d *Demux) Unrouted() int64 { return d.unknown }

// OnPacket routes one packet; unknown flows are counted and dropped.
func (d *Demux) OnPacket(p *Packet) {
	if uint(p.ConnID) < uint(len(d.routes)) {
		row := d.routes[p.ConnID]
		if uint(p.SubflowID) < uint(len(row)) {
			if r := row[p.SubflowID]; r != nil {
				r(p)
				return
			}
		}
	}
	d.unknown++
}
