package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"dirsim/internal/obs"
	"dirsim/internal/otrace"
	"dirsim/internal/runner"
	"dirsim/internal/spec"
)

// KeyHeader carries the shared cluster key on peer-to-peer cache
// requests. It is distinct from tenant Authorization: peering is
// fleet-internal traffic, exempt from tenant quotas and rate limits.
const KeyHeader = "X-Dirsim-Cluster-Key"

// Client runs cells against the fleet: each cell is routed to its HRW
// owner, hedged onto the next peer in HRW order after HedgeDelay, and
// failed over on transport errors. First success wins and cancels the
// losers — content addressing and the daemons' singleflight make the
// duplicated attempt harmless (both attach to the same job id).
type Client struct {
	// Membership is the fleet (the same file the daemons load).
	Membership Membership
	// Router orders peers per cell; build it over Membership and the
	// shared Health.
	Router *Router
	// Health records peers seen dead (transport errors); the router
	// then deprioritises them for every later cell.
	Health *Health
	// APIKey authenticates to daemons running with tenants configured.
	APIKey string
	// HTTP is the transport shared by every per-peer request; nil uses
	// a default with bounded dial and TLS timeouts but no overall
	// deadline (wait=1 submissions long-poll; the context bounds them).
	HTTP *http.Client
	// Retry bounds how each per-peer attempt retries 429/503 answers
	// (Max < 2 disables retries). The schedule is runner.RetryPolicy's
	// deterministic exponential backoff with jitter, floored by the
	// daemon's Retry-After, so a saturated daemon is probed on the same
	// reproducible cadence every run.
	Retry runner.RetryPolicy
	// Sleep waits out retry backoff (cmd layers pass time.Sleep; nil
	// applies the schedule without waiting, which is what tests want).
	Sleep func(time.Duration)
	// HedgeDelay is how long the primary attempt runs alone before the
	// next peer in HRW order is tried concurrently. Zero (or nil After)
	// disables hedging — failover then happens only on error.
	HedgeDelay time.Duration
	// After is the injected hedge timer (cmd passes time.After); nil
	// disables hedging, which keeps internal packages clock-free and
	// lets tests fire hedges deterministically.
	After func(time.Duration) <-chan time.Time
	// Tracer, when set, records one "cell" span per RunCell and one
	// "attempt-<reason>" span per peer attempt (reason: primary, hedge,
	// failover), each carrying the peer address and a win/error/canceled
	// outcome. The trace id is the cell's content hash, and the context
	// is propagated to the daemons via X-Dirsim-Trace.
	Tracer *otrace.Tracer
	// Metrics, when set, receives hedge-outcome counters:
	// cluster_hedge_fired, cluster_hedge_win, cluster_failover,
	// cluster_attempt_canceled.
	Metrics *obs.Metrics
}

// count bumps one named counter when metrics are wired.
func (c *Client) count(name string) {
	if c.Metrics != nil {
		c.Metrics.AddCounter(name, 1)
	}
}

// attempt is one peer's outcome inside RunCell.
type attempt struct {
	peer   int
	reason string
	doc    *spec.ResultDoc
	err    error
}

// RunCell executes one cell on the fleet and returns its result
// document. Peers are tried in HRW order for the cell's content hash:
// the owner first, the next peer added after HedgeDelay (hedge) or
// immediately when an attempt fails (failover). The first success
// cancels every other attempt. The cell hash — not the request hash —
// is the routing key, so the daemon receiving the cell is the same
// node its checkpointed cell document homes to.
func (c *Client) RunCell(ctx context.Context, cell spec.Cell) (*spec.ResultDoc, error) {
	hash, err := cell.Hash()
	if err != nil {
		return nil, err
	}
	order := c.Router.Order(hash)
	if len(order) == 0 {
		return nil, errors.New("cluster: empty membership")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rootSp := c.Tracer.Start(otrace.Root(hash), "cell")
	rootSp.SetOutcome("error")
	defer rootSp.Finish()
	rootCtx := rootSp.Context()
	results := make(chan attempt, len(order))
	launched, outstanding := 0, 0
	launch := func(reason string) {
		pi := order[launched]
		launched++
		outstanding++
		addr := c.Membership.Peers[pi].Addr
		sp := c.Tracer.Start(rootCtx, "attempt-"+reason)
		sp.SetPeer(addr)
		actx := otrace.With(ctx, sp.Context())
		go func() {
			doc, err := c.run(actx, addr, cell)
			switch {
			case err == nil:
				sp.SetOutcome("win")
			case ctx.Err() != nil:
				sp.SetOutcome("canceled")
				c.count("cluster_attempt_canceled")
			default:
				sp.SetOutcome("error")
			}
			sp.Finish()
			results <- attempt{peer: pi, reason: reason, doc: doc, err: err}
		}()
	}
	// hedge is armed only while another peer remains to launch.
	var hedge <-chan time.Time
	arm := func() {
		hedge = nil
		if c.After != nil && c.HedgeDelay > 0 && launched < len(order) {
			hedge = c.After(c.HedgeDelay)
		}
	}
	launch("primary")
	arm()
	var errs []error
	for {
		select {
		case a := <-results:
			outstanding--
			if a.err == nil {
				if a.reason == "hedge" {
					c.count("cluster_hedge_win")
				}
				rootSp.SetOutcome(a.reason)
				return a.doc, nil
			}
			if ctx.Err() != nil {
				rootSp.SetOutcome("canceled")
				return nil, context.Cause(ctx)
			}
			if IsTransportError(a.err) {
				c.Health.SetDown(a.peer, true)
			}
			errs = append(errs, fmt.Errorf("peer %s: %w", c.Membership.Peers[a.peer].Addr, a.err))
			if launched < len(order) {
				c.count("cluster_failover")
				launch("failover")
				arm()
			} else if outstanding == 0 {
				return nil, fmt.Errorf("cluster: cell %s failed on all peers: %w", cell.Label(), errors.Join(errs...))
			}
		case <-hedge:
			if launched < len(order) {
				c.count("cluster_hedge_fired")
				launch("hedge")
			}
			arm()
		case <-ctx.Done():
			rootSp.SetOutcome("canceled")
			return nil, context.Cause(ctx)
		}
	}
}

// RunCells fans cells out over a bounded worker pool, each cell through
// RunCell. onDone is called exactly once per cell, serialized (never
// concurrently), in completion order. The first cell failure cancels
// the remaining work and is returned; later cells then surface
// cancellation errors through onDone, which callers should ignore in
// favour of the returned error. Cancelling ctx likewise stops the run
// and returns its cause — an interrupted fleet run never looks whole.
func (c *Client) RunCells(ctx context.Context, cells []spec.Cell, workers int, onDone func(i int, doc *spec.ResultDoc, err error)) error {
	if workers < 1 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	idx := make(chan int)
	var wg sync.WaitGroup
	// The first failure is recorded by cancelling the shared context with
	// the wrapped error as its cause — context.Cause is the error slot, so
	// no goroutine ever assigns a captured variable. cancel is a no-op on
	// an already-cancelled context, which is exactly first-error-wins.
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				doc, err := c.RunCell(ctx, cells[i])
				mu.Lock()
				if err != nil {
					cancel(fmt.Errorf("cluster: cell %d (%s): %w", i, cells[i].Label(), err))
				}
				if onDone != nil {
					onDone(i, doc, err)
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range cells {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return context.Cause(ctx)
}

// IsTransportError reports whether err is a connection-level failure
// (dial refused, reset, timeout) as opposed to a daemon answering with
// an error status — the distinction between "mark the peer down" and
// "the fleet is fine, the request is not".
func IsTransportError(err error) bool {
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// CacheClient is the daemon-side peering fetch: GET /v1/cache/{hash}
// against a sibling, authenticated by the shared cluster key.
type CacheClient struct {
	// HTTP must carry its own Timeout: a peer fetch is an optimisation,
	// and a hung peer must cost bounded time before the daemon falls
	// back to simulating locally.
	HTTP *http.Client
	// Key is the membership's shared cluster key (may be empty for
	// keyless fleets on trusted networks).
	Key string
}

// Fetch asks one peer for the completed document stored under hash.
// found is false on a clean miss (404); err is reserved for transport
// failures and unexpected statuses.
func (c *CacheClient) Fetch(ctx context.Context, baseURL, hash string) (data []byte, found bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, trimSlash(baseURL)+"/v1/cache/"+hash, nil)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: %w", err)
	}
	if c.Key != "" {
		req.Header.Set(KeyHeader, c.Key)
	}
	if tc, ok := otrace.From(ctx); ok {
		req.Header.Set(otrace.HeaderName, tc.String())
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: reading peer response: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return body, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("cluster: peer answered %d %s", resp.StatusCode, http.StatusText(resp.StatusCode))
	}
}
