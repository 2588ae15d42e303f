package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/results"
)

// Backoff is an exponential-backoff-with-full-jitter schedule: attempt
// n sleeps a uniformly random duration in (0, min(Base·2ⁿ, Max)].
// Jitter decorrelates a fleet of workers hammering a briefly-down
// coordinator; the randomness never feeds the simulation, so the
// determinism contract is untouched.
type Backoff struct {
	// Base is attempt 0's ceiling. Default 100ms.
	Base time.Duration
	// Max caps the per-attempt ceiling. Default 5s.
	Max time.Duration
	// Attempts bounds total tries per RPC (first try included).
	// Default 8 — roughly 20s of cumulative patience, comfortably
	// longer than a coordinator restart.
	Attempts int
}

// withDefaults fills the zero values.
func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.Attempts <= 0 {
		b.Attempts = 8
	}
	return b
}

// delay computes attempt's sleep.
func (b Backoff) delay(attempt int, rng *rand.Rand) time.Duration {
	d := b.Base << uint(attempt)
	if d <= 0 || d > b.Max {
		d = b.Max
	}
	return time.Duration(rng.Int63n(int64(d))) + time.Millisecond
}

// Client is a coordinator client. Every RPC retries transient failures
// (connection errors, timeouts, 5xx, 429) per the Backoff schedule;
// permanent rejections (other 4xx) surface immediately with the
// server's message.
type Client struct {
	// BaseURL is the coordinator root, e.g. "http://host:7468".
	BaseURL string
	// Worker identifies this worker in leases and logs.
	Worker string
	// HTTP is the transport; nil selects a client with a 30s
	// per-request timeout (bounds stalled reads, not just dials).
	HTTP *http.Client
	// Backoff is the retry schedule (zero value: defaults).
	Backoff Backoff
	// Logf receives retry/latency notes; nil discards.
	Logf func(format string, args ...any)

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewClient builds a client for the coordinator at hostport (scheme
// optional; plain host:port gets http://).
func NewClient(hostport, worker string) *Client {
	base := hostport
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{BaseURL: strings.TrimRight(base, "/"), Worker: worker}
}

// httpClient resolves the transport.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// statusError is a non-2xx response carrying the server's message.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("coordinator returned %d: %s", e.code, e.msg)
}

// retryable classifies an RPC failure: transport errors and 5xx/429
// are transient; other HTTP statuses are the server telling us no.
func retryable(err error) bool {
	if se, ok := err.(*statusError); ok {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	return true // transport-level: dial refused, reset, timeout
}

// jitter draws one backoff sleep.
func (c *Client) jitter(attempt int) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(len(c.Worker))))
	}
	return c.Backoff.withDefaults().delay(attempt, c.rng)
}

// do runs one JSON RPC with retries.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	b := c.Backoff.withDefaults()
	var lastErr error
	for attempt := 0; attempt < b.Attempts; attempt++ {
		if attempt > 0 {
			d := c.jitter(attempt - 1)
			if c.Logf != nil {
				c.Logf("retrying %s in %v (attempt %d/%d): %v", path, d.Round(time.Millisecond), attempt+1, b.Attempts, lastErr)
			}
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		lastErr = c.once(ctx, method, path, in, out)
		if lastErr == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !retryable(lastErr) {
			return lastErr
		}
	}
	return fmt.Errorf("coord: %s failed after %d attempts: %w", path, b.Attempts, lastErr)
}

// once performs a single HTTP exchange.
func (c *Client) once(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var eb errorBody
		msg := strings.TrimSpace(string(raw))
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return &statusError{code: resp.StatusCode, msg: msg}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// Sweep fetches the sweep description.
func (c *Client) Sweep(ctx context.Context) (SweepInfo, error) {
	var info SweepInfo
	err := c.do(ctx, http.MethodGet, "/v1/sweep", nil, &info)
	return info, err
}

// claim leases up to max cells (0 = server's batch size).
func (c *Client) claim(ctx context.Context, max int) (ClaimResponse, error) {
	var resp ClaimResponse
	err := c.do(ctx, http.MethodPost, "/v1/claim", ClaimRequest{Worker: c.Worker, Max: max}, &resp)
	return resp, err
}

// heartbeat renews leases on cells.
func (c *Client) heartbeat(ctx context.Context, cells []results.Key) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := c.do(ctx, http.MethodPost, "/v1/heartbeat", HeartbeatRequest{Worker: c.Worker, Cells: cells}, &resp)
	return resp, err
}

// ingestBatch uploads a batch of serialized record envelopes. A nil
// error means every record is durable on the coordinator; the response
// carries one duplicate flag per record.
func (c *Client) ingestBatch(ctx context.Context, recs []IngestRecord) (IngestResponse, error) {
	var resp IngestResponse
	err := c.do(ctx, http.MethodPost, "/v1/ingest", IngestRequest{Worker: c.Worker, Records: recs}, &resp)
	if err == nil && len(resp.Duplicate) != len(recs) {
		err = fmt.Errorf("coord: ingest of %d records was acknowledged with %d results (version skew between ecfd and ecfbench?)", len(recs), len(resp.Duplicate))
	}
	return resp, err
}

// release returns leases, optionally reporting a failure.
func (c *Client) release(ctx context.Context, cells []results.Key, failed bool, reason string) (ReleaseResponse, error) {
	var resp ReleaseResponse
	err := c.do(ctx, http.MethodPost, "/v1/release", ReleaseRequest{Worker: c.Worker, Cells: cells, Failed: failed, Reason: reason}, &resp)
	return resp, err
}

// Status fetches sweep progress.
func (c *Client) Status(ctx context.Context) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodGet, "/v1/status", nil, &st)
	return st, err
}
