package coord

import (
	"encoding/json"

	"repro/internal/results"
)

// The wire protocol: JSON bodies over four POST endpoints plus two GET
// probes, all rooted at /v1/. Every request is safe to retry — claim
// grants fresh leases, heartbeat/release are idempotent per (worker,
// cell) state, ingest is idempotent per record by construction.

// SweepInfo describes the sweep to a joining worker (GET /v1/sweep).
type SweepInfo struct {
	// Scale is the scale-profile name ("full", "quick") the worker must
	// run its catalog passes at.
	Scale string `json:"scale"`
	// TotalCells is the size of the work list.
	TotalCells int `json:"total_cells"`
	// LeaseTTLMs is the lease TTL; workers heartbeat well inside it.
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
	// BatchSize is the suggested claim size.
	BatchSize int `json:"batch_size"`
}

// ClaimRequest asks for up to Max leases (POST /v1/claim).
type ClaimRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

// ClaimResponse grants leases. Empty Cells with SweepDone false means
// everything pending is leased elsewhere: poll again after a backoff —
// a lease may expire and come back around.
type ClaimResponse struct {
	Cells      []results.Key `json:"cells,omitempty"`
	LeaseTTLMs int64         `json:"lease_ttl_ms"`
	// SweepDone reports that no work remains (every cell done or parked
	// as failed) — workers should exit.
	SweepDone bool `json:"sweep_done"`
	// Complete reports every cell done with no failures.
	Complete bool `json:"complete"`
}

// HeartbeatRequest renews the worker's leases (POST /v1/heartbeat).
type HeartbeatRequest struct {
	Worker string        `json:"worker"`
	Cells  []results.Key `json:"cells"`
}

// HeartbeatResponse lists the cells the worker no longer holds.
type HeartbeatResponse struct {
	Lost      []results.Key `json:"lost,omitempty"`
	SweepDone bool          `json:"sweep_done"`
}

// IngestRecord is one finished cell in an ingest batch. Record is the
// serialized results envelope (results.EncodeRecord).
type IngestRecord struct {
	Cell   results.Key     `json:"cell"`
	Record json.RawMessage `json:"record"`
}

// IngestRequest uploads a batch of finished cell records (POST
// /v1/ingest); a lone record is a batch of one. The batch is accepted
// or refused whole: one malformed or foreign record rejects the request
// before anything is written.
type IngestRequest struct {
	Worker  string         `json:"worker"`
	Records []IngestRecord `json:"records"`
}

// IngestResponse acknowledges a batch: by the time it is sent, every
// record of the request is durable in the coordinator's store.
type IngestResponse struct {
	// Duplicate has one entry per request record, in order: true when
	// that cell was already ingested (idempotent no-op) — normal under
	// lease theft and RPC retries.
	Duplicate []bool `json:"duplicate"`
	SweepDone bool   `json:"sweep_done"`
}

// ReleaseRequest returns leases early (POST /v1/release): a clean
// requeue at pass end, or a failure report (Failed true) that parks
// the cell.
type ReleaseRequest struct {
	Worker string        `json:"worker"`
	Cells  []results.Key `json:"cells"`
	Failed bool          `json:"failed"`
	Reason string        `json:"reason,omitempty"`
}

// ReleaseResponse is an acknowledgement.
type ReleaseResponse struct {
	SweepDone bool `json:"sweep_done"`
}

// FailedCell reports one cell parked on a failed release.
type FailedCell struct {
	Key       results.Key `json:"key"`
	LastError string      `json:"last_error,omitempty"`
}

// Status is the sweep progress snapshot (GET /v1/status).
type Status struct {
	Scale      string       `json:"scale"`
	Total      int          `json:"total"`
	Done       int          `json:"done"`
	Leased     int          `json:"leased"`
	Pending    int          `json:"pending"`
	Failed     int          `json:"failed"`
	FailedList []FailedCell `json:"failed_cells,omitempty"`
	Stolen     int          `json:"leases_stolen"`
	Ingested   int          `json:"records_ingested"`
	Duplicates int          `json:"duplicate_ingests"`
	SweepDone  bool         `json:"sweep_done"`
	Complete   bool         `json:"complete"`
}

// errorBody is the JSON error payload on non-2xx responses.
type errorBody struct {
	Error string `json:"error"`
}
