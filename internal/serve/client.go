package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TransportError is a coordinator RPC that never produced an HTTP
// response — connection refused, reset, timeout. Always retryable:
// the request may or may not have been delivered, and every fleet RPC
// is idempotent (submit keys, lease nonces, completed-lease
// acknowledgement), so retrying cannot double-apply.
type TransportError struct {
	Op  string // "POST /api/lease", ...
	Err error
}

func (e *TransportError) Error() string { return fmt.Sprintf("%s: %v", e.Op, e.Err) }
func (e *TransportError) Unwrap() error { return e.Err }

// StatusError is a non-2xx coordinator reply.
type StatusError struct {
	Op   string
	Code int
	Msg  string // coordinator's error body, if it sent one
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("%s: %s", e.Op, e.Msg)
	}
	return fmt.Sprintf("%s: HTTP %d", e.Op, e.Code)
}

// Temporary reports whether retrying could succeed: server-side
// errors and throttling are temporary, 4xx rejections are not.
func (e *StatusError) Temporary() bool {
	return e.Code >= 500 || e.Code == http.StatusTooManyRequests
}

// Retryable reports whether err is a transient coordinator failure —
// a transport error or a temporary HTTP status — as opposed to a
// permanent rejection (4xx) or a local error.
func Retryable(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Temporary()
	}
	return false
}

// ClientStats counts a client's RPC outcomes (atomic; safe to read
// while the client is in use).
type ClientStats struct {
	Retries         atomic.Int64
	TransportErrors atomic.Int64
	StatusErrors    atomic.Int64
}

// Client talks to a coordinator's HTTP API. It is used by workers, by
// the pok-soak / pok-bench -submit modes and by the fleet tests.
// Transient failures (transport errors, 5xx) are retried with
// jittered exponential backoff up to the retry budget; every API is
// idempotent, so retries are always safe.
type Client struct {
	// Base is the coordinator URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client (nil = a 30s-timeout default).
	HTTP *http.Client
	// Retries is the per-call retry budget for transient failures
	// (0 = 4; negative disables retrying).
	Retries int
	// RetryBase / RetryMax bound the jittered exponential backoff
	// between attempts (0 = 50ms / 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Stats counts RPC outcomes across the client's lifetime.
	Stats ClientStats

	instOnce sync.Once
	instance string        // random token namespacing lease nonces
	nonce    atomic.Uint64 // lease-attempt counter
	jitter   atomic.Uint64 // deterministic backoff-jitter stream
}

// NewClient builds a client for the coordinator at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) retryBudget() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 4
	}
	return c.Retries
}

func (c *Client) backoff(attempt int) time.Duration {
	base := c.RetryBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxD := c.RetryMax
	if maxD <= 0 {
		maxD = 2 * time.Second
	}
	d := base << attempt
	if d > maxD {
		d = maxD
	}
	// Jitter the delay into [0.5d, 1.5d) from a cheap deterministic
	// stream — enough to de-synchronize a worker fleet hammering a
	// restarted coordinator, with no wall-clock seeding.
	h := mix64(c.jitter.Add(1))
	frac := float64(h>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.5 + frac))
}

// call POSTs (or GETs when in == nil and method == GET) JSON and
// decodes the JSON reply into out (out == nil discards it). A 204
// reply returns errNoContent. Transient failures are retried with
// backoff up to the retry budget; the last error is returned typed
// (*TransportError or *StatusError).
func (c *Client) call(method, path string, in, out any) error {
	var blob []byte
	if in != nil {
		var err error
		blob, err = json.Marshal(in)
		if err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.do(method, path, blob, out)
		if err == nil || err == errNoContent || !Retryable(err) {
			return err
		}
		lastErr = err
		if attempt >= c.retryBudget() {
			return lastErr
		}
		c.Stats.Retries.Add(1)
		time.Sleep(c.backoff(attempt))
	}
}

// do performs one HTTP attempt.
func (c *Client) do(method, path string, blob []byte, out any) error {
	op := method + " " + path
	var body io.Reader
	if blob != nil {
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, c.Base+path, body)
	if err != nil {
		return err
	}
	if blob != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		c.Stats.TransportErrors.Add(1)
		return &TransportError{Op: op, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return errNoContent
	}
	if resp.StatusCode/100 != 2 {
		c.Stats.StatusErrors.Add(1)
		se := &StatusError{Op: op, Code: resp.StatusCode}
		var e struct {
			Error string `json:"error"`
		}
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			se.Msg = e.Error
		}
		return se
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// A reply truncated mid-flight is a transport failure, not a
		// protocol error; let the caller retry it.
		return &TransportError{Op: op, Err: err}
	}
	return nil
}

var errNoContent = fmt.Errorf("no content")

// mix64 is splitmix64's finalizer: a cheap, stateless hash used for
// backoff jitter.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// randToken returns a short random hex token (nonce/submit-key
// namespacing; not part of any deterministic output).
func randToken() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Submit submits a job and returns its id. A spec without a SubmitKey
// gets a random one, so retries (local or transport-level duplicates)
// land on the same job.
func (c *Client) Submit(spec JobSpec) (string, error) {
	if spec.SubmitKey == "" {
		spec.SubmitKey = "sub-" + randToken()
	}
	var reply struct {
		ID string `json:"id"`
	}
	if err := c.call("POST", "/api/jobs", spec, &reply); err != nil {
		return "", err
	}
	return reply.ID, nil
}

// Job fetches one job's row of the fleet view.
func (c *Client) Job(id string) (*JobMetrics, error) {
	var jm JobMetrics
	if err := c.call("GET", "/api/jobs/"+id, nil, &jm); err != nil {
		return nil, err
	}
	return &jm, nil
}

// Result fetches a completed job's merged result (an error while the
// job is still running or after it failed).
func (c *Client) Result(id string) (*JobResult, error) {
	var res JobResult
	if err := c.call("GET", "/api/jobs/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Wait polls the job until it completes or fails, then returns the
// merged result (poll <= 0 defaults to 500ms). Transient poll
// failures — a coordinator mid-restart, a flaky network — do not end
// the wait; only ctx, a permanent rejection (e.g. the job is unknown
// because the coordinator restarted without a journal) or the job's
// own completion/failure do.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*JobResult, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		js, err := c.Job(id)
		switch {
		case err != nil && Retryable(err):
			// Outage: keep polling until ctx gives up.
		case err != nil:
			return nil, err
		case js.State == "done":
			return c.Result(id)
		case js.State == "failed":
			return nil, fmt.Errorf("serve: job %s failed: %s", id, js.Failed)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// Lease asks for work; a nil Assignment (no error) means none is
// available. Each call is one logical lease attempt under a fresh
// nonce — its retries (and any transport duplicates) return the same
// assignment rather than leaking extra leases.
func (c *Client) Lease(worker string) (*Assignment, error) {
	c.instOnce.Do(func() { c.instance = randToken() })
	var a Assignment
	req := LeaseRequest{
		Worker: worker,
		Nonce:  fmt.Sprintf("%s-%d", c.instance, c.nonce.Add(1)),
	}
	err := c.call("POST", "/api/lease", req, &a)
	if err == errNoContent {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return &a, nil
}

// Heartbeat reports progress on a lease.
func (c *Client) Heartbeat(hb Heartbeat) (*HeartbeatReply, error) {
	var reply HeartbeatReply
	if err := c.call("POST", "/api/heartbeat", hb, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Complete finishes a lease.
func (c *Client) Complete(res CellResult) error {
	return c.call("POST", "/api/complete", res, nil)
}

// Release hands a lease back cleanly with the partial results so far
// (graceful worker shutdown).
func (c *Client) Release(rel ReleaseRequest) error {
	return c.call("POST", "/api/release", rel, nil)
}

// Fail reports a hard error on a lease.
func (c *Client) Fail(lease, worker, msg string) error {
	return c.call("POST", "/api/fail",
		FailRequest{Lease: lease, Worker: worker, Error: msg}, nil)
}

// Metrics fetches the fleet view.
func (c *Client) Metrics() (*FleetMetrics, error) {
	var m FleetMetrics
	if err := c.call("GET", "/api/metrics", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}
