package netsim

import (
	"time"

	"repro/internal/sim"
)

// PathConfig parameterizes a bidirectional Path.
type PathConfig struct {
	// Name labels the path ("wifi", "lte").
	Name string
	// RateBps is the forward (server-to-client) shaping rate in bits/s.
	// The reverse link starts at the same rate.
	RateBps float64
	// Delay is the one-way propagation delay in each direction.
	Delay time.Duration
	// QueueBytes sizes each direction's drop-tail buffer (zero = 64 KiB).
	// The forward buffer is what produces the RTT inflation of Table 2.
	QueueBytes int
	// LossRate is i.i.d. random loss applied in the forward direction.
	LossRate float64
	// Seed seeds the loss process.
	Seed uint64
}

// Path is a bidirectional channel made of a forward and a reverse Link.
// The transport sends data packets Forward and ACKs Reverse.
type Path struct {
	name string
	fwd  *Link
	rev  *Link
}

// NewPath builds both directions on the engine. Receivers start nil and
// must be installed via SetForwardReceiver / SetReverseReceiver before
// traffic flows.
func NewPath(eng *sim.Engine, cfg PathConfig) *Path {
	p := &Path{fwd: &Link{eng: eng}, rev: &Link{eng: eng}}
	p.Reset(cfg)
	return p
}

// Reset reconfigures both directions in place to the state NewPath(eng,
// cfg) would construct, keeping the links' grown ring capacity. Like
// Link.Reset it requires the engine to have been reset first; receivers
// must be (re)installed afterwards.
func (p *Path) Reset(cfg PathConfig) {
	fwdName, revName := p.fwd.name, p.rev.name
	if p.name != cfg.Name || fwdName == "" {
		fwdName = cfg.Name + ":fwd"
		revName = cfg.Name + ":rev"
	}
	p.name = cfg.Name
	p.fwd.reset(LinkConfig{
		Name:       fwdName,
		RateBps:    cfg.RateBps,
		Delay:      cfg.Delay,
		QueueBytes: cfg.QueueBytes,
		LossRate:   cfg.LossRate,
		Seed:       cfg.Seed,
	}, nil)
	p.rev.reset(LinkConfig{
		Name:       revName,
		RateBps:    cfg.RateBps,
		Delay:      cfg.Delay,
		QueueBytes: cfg.QueueBytes,
	}, nil)
}

// Name returns the path label.
func (p *Path) Name() string { return p.name }

// Forward returns the data-direction link.
func (p *Path) Forward() *Link { return p.fwd }

// Reverse returns the ACK-direction link.
func (p *Path) Reverse() *Link { return p.rev }

// SetForwardReceiver installs the data-side consumer (the client).
func (p *Path) SetForwardReceiver(r Receiver) { p.fwd.SetReceiver(r) }

// SetReverseReceiver installs the ACK-side consumer (the server).
func (p *Path) SetReverseReceiver(r Receiver) { p.rev.SetReceiver(r) }

// SetRateBps rescales the forward direction (the regulated direction in
// the paper's testbed). The reverse link is left untouched: ACK traffic is
// negligible.
func (p *Path) SetRateBps(rate float64) { p.fwd.setRateBps(rate) }

// BaseRTT returns the zero-load round-trip time (twice the propagation
// delay; serialization excluded).
func (p *Path) BaseRTT() time.Duration { return p.fwd.Delay() + p.rev.Delay() }
