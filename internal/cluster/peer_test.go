package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dirsim/internal/runner"
)

// A daemon answering 429 with Retry-After must be retried on the
// deterministic backoff schedule — honouring the header as a floor —
// and the sweep succeeds once the queue drains, instead of failing
// whole on transient saturation.
func TestRunRetries429HonoringRetryAfter(t *testing.T) {
	result := doneDoc(t, "ok")
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		w.Write(result)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := &Client{
		Retry: runner.RetryPolicy{Max: 5, Base: 10 * time.Millisecond, Seed: 1},
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	doc, err := c.run(context.Background(), ts.URL, testCell(t, 2_000))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Status != "done" {
		t.Errorf("status = %q", doc.Status)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("daemon saw %d requests, want 4 (3 rejections + 1 success)", got)
	}
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(slept))
	}
	for i, d := range slept {
		// Retry-After: 2 floors every delay — the policy's base backoff
		// (tens of ms) is below it.
		if d < 2*time.Second {
			t.Errorf("sleep %d = %v, want ≥ 2s (Retry-After floor)", i, d)
		}
	}
}

// Attempts are capped: a permanently saturated daemon exhausts the
// policy and surfaces the 429, it does not retry forever.
func TestRunRetryAttemptsCapped(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := &Client{Retry: runner.RetryPolicy{Max: 3, Base: time.Millisecond, Seed: 1}}
	_, err := c.run(context.Background(), ts.URL, testCell(t, 2_000))
	if err == nil {
		t.Fatal("saturated daemon did not surface an error")
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("daemon saw %d requests, want exactly Max=3", got)
	}
}

// The backoff schedule is deterministic: two identical clients retrying
// the same saturation sleep exactly the same delays.
func TestRetryBackoffDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) <= 2 {
				http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
				return
			}
			w.Write(doneDoc(t, "ok"))
		}))
		defer ts.Close()
		var slept []time.Duration
		c := &Client{
			Retry: runner.RetryPolicy{Max: 4, Base: 20 * time.Millisecond, Seed: 7},
			Sleep: func(d time.Duration) { slept = append(slept, d) },
		}
		if _, err := c.run(context.Background(), ts.URL, testCell(t, 2_000)); err != nil {
			t.Fatal(err)
		}
		return slept
	}
	a, b := run(), run()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("sleep counts: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("delay %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// Hard errors are not retried: a 400 comes straight back, and with no
// retry policy a 429 fails on the first answer (legacy behaviour).
func TestNoRetryOnHardErrorOrWithoutPolicy(t *testing.T) {
	for _, tc := range []struct {
		status int
		client *Client
		calls  int64
	}{
		{http.StatusBadRequest, &Client{Retry: runner.RetryPolicy{Max: 5, Base: time.Millisecond}}, 1},
		{http.StatusTooManyRequests, &Client{}, 1},
	} {
		var calls atomic.Int64
		status := tc.status
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			http.Error(w, fmt.Sprintf(`{"error":"status %d"}`, status), status)
		}))
		if _, err := tc.client.run(context.Background(), ts.URL, testCell(t, 2_000)); err == nil {
			t.Errorf("status %d: no error surfaced", status)
		}
		if calls.Load() != tc.calls {
			t.Errorf("status %d: %d requests, want %d", status, calls.Load(), tc.calls)
		}
		ts.Close()
	}
}

// The API key travels as a bearer token on every request.
func TestAPIKeyHeader(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("Authorization"))
		w.Write(doneDoc(t, "ok"))
	}))
	defer ts.Close()
	c := &Client{APIKey: "tenant-secret"}
	if _, err := c.run(context.Background(), ts.URL, testCell(t, 2_000)); err != nil {
		t.Fatal(err)
	}
	if got.Load() != "Bearer tenant-secret" {
		t.Errorf("Authorization = %q", got.Load())
	}
}
