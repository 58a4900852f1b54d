package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dirsim/internal/otrace"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
)

// defaultHTTP is the fallback transport when Client.HTTP is nil. It
// deliberately sets no overall Timeout — a ?wait=1 submission legitimately
// holds its connection open for the whole job, bounded by the caller's
// context — but every connection-establishment step is bounded, so a dead
// daemon fails the dial in seconds instead of hanging the caller forever.
var defaultHTTP = &http.Client{
	Transport: &http.Transport{
		Proxy:                 http.ProxyFromEnvironment,
		DialContext:           (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
		TLSHandshakeTimeout:   10 * time.Second,
		ResponseHeaderTimeout: 0, // long-poll: the job runs before headers arrive
	},
}

// errorBody extracts the daemon's JSON error envelope, falling back to
// the raw body.
func errorBody(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}

// retryable reports whether an HTTP status is transient daemon
// saturation: over quota / queue full (429) or not ready — draining or
// replaying its journal after a restart (503).
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// backoffFor combines the policy's deterministic schedule with the
// daemon's Retry-After hint (seconds), whichever is longer.
func (c *Client) backoffFor(attempt int, retryAfter string) time.Duration {
	d := c.Retry.Backoff(0, attempt)
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs >= 0 {
		if ra := time.Duration(secs) * time.Second; ra > d {
			d = ra
		}
	}
	return d
}

// do POSTs one JSON body to url with auth and trace headers, reading
// the whole response.
func (c *Client) do(ctx context.Context, url string, body []byte) (int, http.Header, []byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("cluster: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.APIKey != "" {
		hreq.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	if tc, ok := otrace.From(ctx); ok {
		hreq.Header.Set(otrace.HeaderName, tc.String())
	}
	hc := c.HTTP
	if hc == nil {
		hc = defaultHTTP
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("cluster: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("cluster: reading response: %w", err)
	}
	return resp.StatusCode, resp.Header, data, nil
}

// doRetrying runs do under the retry policy: transient saturation
// answers (429/503) are retried up to Retry.Max attempts with the
// jittered backoff, honouring Retry-After; everything else — success,
// hard errors, transport failures — returns immediately. Submission is
// idempotent by construction — jobs are content-addressed — so a
// retried POST can only attach to the same work, never duplicate it.
func (c *Client) doRetrying(ctx context.Context, url string, body []byte) (int, []byte, error) {
	max := c.Retry.Max
	if max < 1 {
		max = 1
	}
	var (
		status int
		data   []byte
	)
	for attempt := 1; ; attempt++ {
		var (
			hdr http.Header
			err error
		)
		status, hdr, data, err = c.do(ctx, url, body)
		if err != nil {
			return 0, nil, err
		}
		if !retryable(status) || attempt >= max {
			return status, data, nil
		}
		delay := c.backoffFor(attempt, hdr.Get("Retry-After"))
		if c.Sleep != nil && delay > 0 {
			c.Sleep(delay)
		}
		if err := ctx.Err(); err != nil {
			return status, data, fmt.Errorf("cluster: %w", err)
		}
	}
}

// run submits one cell to the daemon at addr with wait semantics and
// returns the parsed result document. The call blocks until the daemon
// finishes the job (or serves it from cache); cancelling ctx
// disconnects, which withdraws this client's interest in the job.
// Saturation (429) and daemon restarts (503) are retried per the
// client's Retry policy.
func (c *Client) run(ctx context.Context, addr string, cell spec.Cell) (*spec.ResultDoc, error) {
	req := spec.Request{Cell: &cell}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	status, data, err := c.doRetrying(ctx, trimSlash(addr)+"/v1/jobs?wait=1", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("cluster: daemon answered %d %s: %s", status, http.StatusText(status), errorBody(data))
	}
	var doc spec.ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("cluster: bad result document: %w", err)
	}
	if doc.Status != "done" {
		return nil, fmt.Errorf("cluster: job %s ended %q", doc.ID, doc.Status)
	}
	return &doc, nil
}

// Results rebuilds runnable sim.Results from a one-cell result document
// — priced identically to a local run, including cost-model adjustments
// that do not survive serialisation, which sim.RemoteResult rederives
// from the scheme name and the cell's machine config.
func Results(doc *spec.ResultDoc, cell spec.Cell) ([]sim.Result, error) {
	if len(doc.Cells) != 1 {
		return nil, fmt.Errorf("cluster: result has %d cells, want 1", len(doc.Cells))
	}
	srs, err := doc.Cells[0].SchemeResults()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if len(srs) != len(cell.Schemes) {
		return nil, fmt.Errorf("cluster: %d scheme results, want %d", len(srs), len(cell.Schemes))
	}
	rs := make([]sim.Result, len(srs))
	for k, sr := range srs {
		r, err := sim.RemoteResult(sr.Scheme, cell.Machine, sr.Stats)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		rs[k] = r
	}
	return rs, nil
}
