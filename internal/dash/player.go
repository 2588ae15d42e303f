package dash

import (
	"math"
	"time"

	"repro/internal/mptcp"
	"repro/internal/sim"
)

// The paper's client (§5.1) plays StandardLadder in chunks of
// chunkSeconds against a buffer capped at maxBufferSec.
const (
	// chunkSeconds is the chunk duration.
	chunkSeconds = 5
	// maxBufferSec is the playback buffer cap that produces the OFF
	// periods.
	maxBufferSec = 30
	// playSec is the buffer level at which playback starts during
	// initial buffering, and at which it resumes after a stall.
	playSec = 10
)

// PlayerConfig parameterizes a streaming session.
type PlayerConfig struct {
	// VideoSeconds is the total content length (the paper streams a 20
	// minute playout; benches use shorter clips). Zero selects 120.
	VideoSeconds float64
	// abr is the adaptation algorithm (default BBAABR).
	abr abr
}

func (c *PlayerConfig) fillDefaults() {
	if c.VideoSeconds <= 0 {
		c.VideoSeconds = 120
	}
	if c.abr == nil {
		// The paper's client uses the buffer-based algorithm of Huang et
		// al. [12]; it is the default here too.
		c.abr = &BBAABR{}
	}
}

// Player is the DASH client state machine (§2.2): initial buffering,
// steady ON-OFF fetching against a capped playback buffer, and
// rebuffering stalls when the buffer runs dry.
type Player struct {
	eng  *sim.Engine
	conn *mptcp.Conn
	cfg  PlayerConfig

	state       playerState
	bufferSec   float64
	lastUpdate  sim.Time
	playing     bool
	stallBegin  sim.Time
	nextChunk   int
	totalChunks int
	cumBytes    int64

	result Result
	done   func(*Result)
}

// NewPlayer builds a player over an established MPTCP connection.
func NewPlayer(eng *sim.Engine, conn *mptcp.Conn, cfg PlayerConfig) *Player {
	cfg.fillDefaults()
	total := int(math.Ceil(cfg.VideoSeconds / chunkSeconds))
	if total < 1 {
		total = 1
	}
	return &Player{eng: eng, conn: conn, cfg: cfg, totalChunks: total}
}

// bufferSeconds returns the playback buffer level, accounting for
// playback drain since the last event.
func (p *Player) bufferSeconds() float64 {
	buf := p.bufferSec
	if p.playing {
		buf -= (p.eng.Now() - p.lastUpdate).Seconds()
		if buf < 0 {
			buf = 0
		}
	}
	return buf
}

// Result returns the session telemetry collected so far.
func (p *Player) Result() *Result { return &p.result }

// Start begins the session; done (optional) fires when the last chunk has
// been downloaded.
func (p *Player) Start(done func(*Result)) {
	p.done = done
	p.lastUpdate = p.eng.Now()
	p.state = initialBuffering
	p.requestNext()
}

// advanceBuffer applies playback drain up to now and detects stalls.
func (p *Player) advanceBuffer() {
	now := p.eng.Now()
	if p.playing {
		drain := (now - p.lastUpdate).Seconds()
		if drain >= p.bufferSec {
			// Ran dry some time between events: playback stalled at the
			// moment the buffer hit zero.
			stalledAt := p.lastUpdate + time.Duration(p.bufferSec*float64(time.Second))
			p.bufferSec = 0
			p.playing = false
			// Any dry buffer after playback has begun is a stall, even if
			// the session never completed its initial buffering.
			p.state = rebuffering
			p.result.Rebuffers++
			p.stallBegin = stalledAt
		} else {
			p.bufferSec -= drain
		}
	}
	p.lastUpdate = now
}

// requestNext issues the next chunk request via the ABR.
// kindPlayerRequest dispatches the end of an ON-OFF pause through the
// typed event table.
var kindPlayerRequest sim.EventKind

func init() {
	kindPlayerRequest = sim.RegisterKind("dash.Player.requestNext", func(a any) { a.(*Player).requestNext() })
}

func (p *Player) requestNext() {
	p.advanceBuffer()
	if p.nextChunk >= p.totalChunks {
		return
	}
	idx := p.cfg.abr.choose(p)
	rep := StandardLadder[idx]
	bytes := chunkBytes(rep, chunkSeconds)
	chunkIdx := p.nextChunk
	p.nextChunk++
	p.conn.Request(bytes, func(tr *mptcp.Transfer) {
		p.onChunkDone(chunkIdx, rep, bytes, tr)
	})
}

// onChunkDone folds in a completed chunk and decides when to fetch the
// next one (immediately, or after an OFF period).
func (p *Player) onChunkDone(idx int, rep Representation, bytes int64, tr *mptcp.Transfer) {
	p.advanceBuffer()
	now := p.eng.Now()

	rec := ChunkRecord{
		Index:       idx,
		Rep:         rep,
		Bytes:       bytes,
		RequestedAt: tr.RequestedAt,
		CompletedAt: now,
	}
	if dur := tr.Duration().Seconds(); dur > 0 {
		rec.ThroughputMbps = float64(bytes) * 8 / dur / 1e6
	}
	if diff, ok := tr.LastPacketTimeDiff(0, 1); ok {
		rec.LastPacketDiff = diff
		rec.BothPaths = true
	}
	p.result.Chunks = append(p.result.Chunks, rec)
	p.cumBytes += bytes
	p.result.DownloadTrace = append(p.result.DownloadTrace, TracePoint{At: now, Bytes: p.cumBytes})

	p.bufferSec += chunkSeconds

	// Playback start / stall resume.
	if !p.playing {
		if p.bufferSec >= playSec || p.nextChunk >= p.totalChunks {
			if p.state == rebuffering {
				p.result.StallTime += now - p.stallBegin
				p.state = steady
			}
			p.playing = true
		}
	}
	if p.state == initialBuffering && p.bufferSec >= maxBufferSec {
		p.state = steady
	}

	if p.nextChunk >= p.totalChunks {
		p.state = finished
		if p.done != nil {
			p.done(&p.result)
		}
		return
	}

	// ON-OFF: if fetching the next chunk would overflow the buffer, pause
	// until enough playback has been consumed (§2.2, Figure 1).
	if p.bufferSec+chunkSeconds > maxBufferSec && p.playing {
		offSec := p.bufferSec + chunkSeconds - maxBufferSec
		p.eng.ScheduleEvent(time.Duration(offSec*float64(time.Second)), kindPlayerRequest, p)
		return
	}
	p.requestNext()
}
