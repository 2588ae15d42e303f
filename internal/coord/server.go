package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/results"
)

// Config parameterizes a coordinator.
type Config struct {
	// Store is the coordinator's record store — the sweep's only
	// durable state. Required.
	Store *results.Store
	// Cells is the sweep's work list in stable order (expand
	// experiments.EnumerateCells). Required, non-empty.
	Cells []results.Key
	// ScaleName names the scale profile workers must run at.
	ScaleName string
	// LeaseTTL bounds how long a silent worker keeps its cells.
	// Default 45s.
	LeaseTTL time.Duration
	// BatchSize is the suggested cells-per-claim. Default 32.
	BatchSize int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
	// Now is the clock; nil selects time.Now (tests inject a fake).
	Now func() time.Time
}

// Server is the sweep coordinator: lease table, idempotent ingest into
// the store, and the HTTP handler over both.
type Server struct {
	cfg  Config
	now  func() time.Time
	logf func(string, ...any)

	mu         sync.Mutex
	table      *leaseTable
	ingested   int
	duplicates int

	doneOnce sync.Once
	doneCh   chan struct{}
}

// NewServer builds a coordinator and resumes any prior sweep in the
// store: every cell with a well-formed record is marked done up front,
// so a restart recomputes nothing. The store scan is the whole resume
// state. Keys are content-addressed, so sweeps of other scales or work
// lists may share the store: their records lie under other keys, and
// a cell two sweeps share has the same bytes in both.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("coord: Config.Store is required")
	}
	if len(cfg.Cells) == 0 {
		return nil, fmt.Errorf("coord: Config.Cells is empty — nothing to sweep")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 45 * time.Second
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	s := &Server{
		cfg:    cfg,
		now:    cfg.Now,
		logf:   cfg.Logf,
		doneCh: make(chan struct{}),
	}
	if s.now == nil {
		s.now = time.Now
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.table = newLeaseTable(cfg.Cells, cfg.LeaseTTL)
	resumed := 0
	for _, k := range cfg.Cells {
		if cfg.Store.Has(k) {
			if added, _ := s.table.markDone(k); added {
				resumed++
			}
		}
	}
	if resumed > 0 {
		s.logf("resume: %d/%d cells already in the store", resumed, len(cfg.Cells))
	}
	s.maybeDone()
	return s, nil
}

// Done is closed when no work remains (every cell done or parked as
// failed) — the -exit-when-done trigger.
func (s *Server) Done() <-chan struct{} { return s.doneCh }

// maybeDone closes Done when the sweep has settled. Caller holds s.mu
// or is in the constructor.
func (s *Server) maybeDone() {
	if settled, _ := s.table.settled(); settled {
		s.doneOnce.Do(func() { close(s.doneCh) })
	}
}

// Status snapshots sweep progress.
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	done, leased, pending, failed := s.table.counts(s.now())
	settled, complete := s.table.settled()
	return Status{
		Scale:      s.cfg.ScaleName,
		Total:      len(s.cfg.Cells),
		Done:       done,
		Leased:     leased,
		Pending:    pending,
		Failed:     failed,
		FailedList: s.table.failedCells(),
		Stolen:     s.table.stolen,
		Ingested:   s.ingested,
		Duplicates: s.duplicates,
		SweepDone:  settled,
		Complete:   complete,
	}
}

// Handler returns the coordinator's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/claim", s.handleClaim)
	mux.HandleFunc("/v1/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/release", s.handleRelease)
	mux.HandleFunc("/v1/status", s.handleStatus)
	return mux
}

// writeJSON renders a response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds a request body. The worker's uploader flushes at
// ingestBatchBytes, far below it, so only a misbehaving client meets
// the limit.
const maxBodyBytes = 64 << 20

// readJSON decodes a bounded request body; an oversize body is refused
// (413), not truncated.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body exceeds the %d-byte limit", tooBig.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading body: " + err.Error()})
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding body: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) handleSweep(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, SweepInfo{
		Scale:      s.cfg.ScaleName,
		TotalCells: len(s.cfg.Cells),
		LeaseTTLMs: s.cfg.LeaseTTL.Milliseconds(),
		BatchSize:  s.cfg.BatchSize,
	})
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "claim without a worker id"})
		return
	}
	max := req.Max
	if max <= 0 {
		max = s.cfg.BatchSize
	}
	s.mu.Lock()
	cells := s.table.claim(req.Worker, max, s.now())
	settled, complete := s.table.settled()
	s.mu.Unlock()
	if len(cells) > 0 {
		s.logf("claim: %d cells -> %s (first %s/%d)", len(cells), req.Worker, cells[0].Experiment, cells[0].Cell)
	}
	writeJSON(w, http.StatusOK, ClaimResponse{
		Cells:      cells,
		LeaseTTLMs: s.cfg.LeaseTTL.Milliseconds(),
		SweepDone:  settled,
		Complete:   complete,
	})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	s.mu.Lock()
	lost := s.table.heartbeat(req.Worker, req.Cells, s.now())
	settled, _ := s.table.settled()
	s.mu.Unlock()
	if len(lost) > 0 {
		s.logf("heartbeat: %s lost %d leases", req.Worker, len(lost))
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{Lost: lost, SweepDone: settled})
}

// handleIngest group-commits one batch. The ack is the durability
// point of the protocol: cells are marked done, and the response is
// written, only after Store.IngestBatch has returned — every record's
// file fsync, rename and directory fsync included.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Records) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "ingest carries no records (a single-record client predates the batch protocol)"})
		return
	}
	// Cells already done need no write (and no validation: their record
	// is in the store); the rest go to the store as one batch.
	dup := make([]bool, len(req.Records))
	fresh := make([]results.Record, 0, len(req.Records))
	s.mu.Lock()
	for i, rec := range req.Records {
		j, known := s.table.index[rec.Cell]
		if !known {
			s.mu.Unlock()
			writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf(
				"cell %d of %q is not part of this sweep (mismatched scale or schema?)", rec.Cell.Cell, rec.Cell.Experiment)})
			return
		}
		if s.table.status[j] == cellDone {
			dup[i] = true
			continue
		}
		fresh = append(fresh, results.Record{Key: rec.Cell, Raw: rec.Record})
	}
	s.mu.Unlock()
	// The durable write happens outside the table lock so concurrent
	// ingests overlap their fsyncs; IngestBatch is idempotent, and
	// racing writers produce identical bytes under the determinism
	// contract, so last-rename-wins is harmless.
	if _, err := s.cfg.Store.IngestBatch(fresh); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	s.mu.Lock()
	for i, rec := range req.Records {
		if !dup[i] {
			// False for a cell another request finished meanwhile, or
			// offered twice in this one.
			marked, _ := s.table.markDone(rec.Cell)
			dup[i] = !marked
		}
		if dup[i] {
			s.duplicates++
		} else {
			s.ingested++
		}
	}
	settled, _ := s.table.settled()
	s.maybeDone()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, IngestResponse{Duplicate: dup, SweepDone: settled})
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	s.mu.Lock()
	s.table.release(req.Worker, req.Cells, req.Failed, req.Reason, s.now())
	settled, _ := s.table.settled()
	s.maybeDone()
	s.mu.Unlock()
	if req.Failed {
		s.logf("release: %s failed %d cells: %s", req.Worker, len(req.Cells), req.Reason)
	}
	writeJSON(w, http.StatusOK, ReleaseResponse{SweepDone: settled})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}
