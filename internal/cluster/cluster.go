// Package cluster turns N independent dirsimd daemons into one fleet.
//
// There is no consensus service and no coordinator process: membership
// is a static JSON file (addresses + weights + a shared cluster key)
// that every daemon and every client loads, and placement is pure
// arithmetic — weighted rendezvous hashing (highest random weight) over
// the spec's content hash. Every party that knows the membership
// computes the same owner for the same cell, so requests go
// point-to-point exactly like the paper's directory lookups: hash →
// home node, no broadcast.
//
// The moving parts:
//
//   - Membership/Source: the static peer set, lazily loadable from a
//     file so fleets on ephemeral ports can write the file after the
//     daemons bind (the daemon retries the load on first use).
//   - Router: deterministic weighted HRW order over peers for a key.
//     Removing one peer remaps only the keys that peer owned — the
//     property the FuzzRendezvous test pins.
//   - Health/Prober: per-peer up/down state driven by /readyz probes
//     under an injected clock; down peers sort to the back of the HRW
//     order so they are tried last, not first.
//   - Client: hedged fan-out of cells to their owners with failover
//     down the HRW order; first success wins, losers are canceled.
//     Each attempt is one ?wait=1 submission that retries 429/503 on
//     the runner's backoff, floored by the daemon's Retry-After.
//   - CacheClient: the peer-to-peer result fetch (GET /v1/cache/{hash})
//     daemons use to serve a popular spec fleet-wide after simulating
//     it exactly once.
//
// The package stays stdlib-only and clock-free: anything time-based
// (hedge timers, probe intervals) is injected by the cmd layer.
package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"os"
	"sync"
)

// Peer is one daemon in the fleet.
type Peer struct {
	// Addr is the daemon's base URL, e.g. "http://10.0.0.7:8023".
	Addr string `json:"addr"`
	// Weight scales the peer's share of the key space (node capacity).
	// Zero means 1; fractional weights are allowed.
	Weight float64 `json:"weight,omitempty"`
}

// Membership is the fleet's static configuration: the peer set plus the
// shared secret that authenticates peer-to-peer cache traffic.
type Membership struct {
	// Key, when non-empty, must accompany every /v1/cache request as
	// the X-Dirsim-Cluster-Key header. Every fleet member shares it.
	Key string `json:"key,omitempty"`
	// Peers is the fleet, in file order. Order never affects placement
	// (HRW scores each peer independently), only index numbering.
	Peers []Peer `json:"peers"`
}

// ParseMembership decodes and validates a membership document.
func ParseMembership(data []byte) (Membership, error) {
	var m Membership
	if err := json.Unmarshal(data, &m); err != nil {
		return Membership{}, fmt.Errorf("cluster: membership: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Membership{}, err
	}
	return m, nil
}

// LoadMembership reads and validates a membership file.
func LoadMembership(path string) (Membership, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Membership{}, fmt.Errorf("cluster: membership file: %w", err)
	}
	return ParseMembership(data)
}

// Validate checks the peer set: at least one peer, every address a
// well-formed absolute http(s) URL, no duplicated host:port, no
// negative or non-finite weight.
func (m Membership) Validate() error {
	if len(m.Peers) == 0 {
		return fmt.Errorf("cluster: membership has no peers")
	}
	seen := map[string]bool{}
	for i, p := range m.Peers {
		u, err := url.Parse(p.Addr)
		if err != nil {
			return fmt.Errorf("cluster: peer %d address %q: %w", i, p.Addr, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("cluster: peer %d address %q is not an absolute http(s) URL", i, p.Addr)
		}
		if seen[u.Host] {
			return fmt.Errorf("cluster: duplicate peer %s", u.Host)
		}
		seen[u.Host] = true
		if p.Weight < 0 || math.IsNaN(p.Weight) || math.IsInf(p.Weight, 0) {
			return fmt.Errorf("cluster: peer %d has invalid weight %v", i, p.Weight)
		}
	}
	return nil
}

// IndexOfAddr finds the peer whose URL host matches hostport (the form
// net.Listener.Addr().String() yields), or -1. Daemons use it to locate
// themselves in the membership so peering skips the local node.
func (m Membership) IndexOfAddr(hostport string) int {
	for i, p := range m.Peers {
		if u, err := url.Parse(p.Addr); err == nil && u.Host == hostport {
			return i
		}
	}
	return -1
}

// Source provides membership, lazily. A file-backed source retries the
// load on every Get until it first succeeds, then serves the cached
// value forever — which lets a daemon start before its membership file
// exists (the ephemeral-port bootstrap: daemons bind, a script collects
// the addresses, writes the file, and the fleet forms on first use).
// Membership is immutable once loaded; changing the fleet means
// restarting with a new file, exactly like the tenants file.
type Source struct {
	mu   sync.Mutex
	path string
	mem  Membership
	ok   bool
}

// FileSource returns a source lazily backed by the given file.
func FileSource(path string) *Source { return &Source{path: path} }

// StaticSource returns a source serving a fixed membership (tests, and
// clients that already loaded the file themselves).
func StaticSource(m Membership) *Source { return &Source{mem: m, ok: true} }

// Get returns the membership, attempting the file load if it has not
// succeeded yet. ok is false until a load succeeds.
func (s *Source) Get() (Membership, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ok {
		return s.mem, true
	}
	if s.path == "" {
		return Membership{}, false
	}
	data, err := os.ReadFile(s.path)
	if err != nil {
		return Membership{}, false
	}
	mem, err := ParseMembership(data)
	if err != nil {
		return Membership{}, false
	}
	s.mem, s.ok = mem, true
	return mem, true
}
