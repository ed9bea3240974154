// Package fleet makes a set of vexsmtd daemons self-assembling: daemons
// register with a registry and heartbeat their capacity, load and cache
// footprint; the registry ages members out on a TTL so crashed daemons
// disappear from placement without operator action; and the membership
// doubles as a cache fabric — a daemon that misses its local result
// cache asks its peers for the content-addressed entry before
// simulating, so a sweep warms a cold member as it goes.
//
// None of this machinery can change results. Cache entries are
// content-addressed (vexsmt.CacheKey) and checksummed in transit, so a
// peer-filled cell is byte-identical to a locally simulated one, and a
// fleet-mode sweep exports byte-identically to a single-process run of
// the same plan, seed and scale.
//
// The registry is an http.Handler (serve it standalone from vexsmtctl
// -coordinator, or beside a daemon's routes on one mux);
// membership state lives in that one process. Losing it costs
// coordination, not results: running sweeps finish on the members they
// resolved, and daemons re-register as soon as a registry is back.
package fleet

import (
	"fmt"
	"net/url"
	"sort"
	"sync"
	"time"

	"vexsmt/pkg/vexsmt"
)

// Member is one registered daemon: its identity, where to reach it, and
// the placement/cache signals from its latest heartbeat (the same
// numbers the daemon's own /healthz reports — see server.Stats).
// FirstSeen/LastSeen are stamped by the registry, never by the member.
type Member struct {
	ID            string  `json:"id"`
	URL           string  `json:"url"`
	Capacity      int     `json:"capacity"`
	Running       int     `json:"running"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Simulations   int64   `json:"simulations"`
	Predictors    string  `json:"predictors,omitempty"`
	// Workloads advertises the trace corpus this daemon holds, as
	// comma-joined sorted "name@sha256" references — a coordinator can
	// route a trace-backed cell only to members advertising its reference,
	// since equal reference means byte-identical trace content.
	Workloads    string            `json:"workloads,omitempty"`
	CacheEnabled bool              `json:"cache_enabled"`
	Cache        vexsmt.CacheStats `json:"cache"`
	CacheSize    vexsmt.CacheSize  `json:"cache_size"`

	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
}

// Validate checks the fields a member must supply itself.
func (m Member) Validate() error {
	if m.ID == "" {
		return fmt.Errorf("fleet: member has no id")
	}
	u, err := url.Parse(m.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("fleet: member %s: url %q: need scheme and host", m.ID, m.URL)
	}
	return nil
}

// Defaults for the registration lease. The TTL is a few missed
// heartbeats, so one dropped packet does not evict a live daemon but a
// SIGKILLed one leaves placement within seconds.
const (
	DefaultTTL               = 10 * time.Second
	DefaultHeartbeatInterval = 3 * time.Second
)

// Registry is the fleet's membership table. Registration and heartbeat
// are the same idempotent upsert; a member that stops heartbeating is
// evicted lazily once its lease (TTL) expires, so reads never observe a
// dead daemon older than one TTL and no background reaper is needed.
type Registry struct {
	ttl      time.Duration
	interval time.Duration
	now      func() time.Time

	mu      sync.Mutex
	members map[string]Member
}

// RegistryOption configures a Registry.
type RegistryOption func(*Registry)

// WithTTL sets the registration lease; members unseen for longer are
// evicted. Non-positive restores the default.
func WithTTL(d time.Duration) RegistryOption {
	return func(r *Registry) {
		if d > 0 {
			r.ttl = d
		} else {
			r.ttl = DefaultTTL
		}
	}
}

// WithHeartbeatInterval sets the cadence the registry asks members to
// heartbeat at (returned in every register response). Non-positive
// restores the default.
func WithHeartbeatInterval(d time.Duration) RegistryOption {
	return func(r *Registry) {
		if d > 0 {
			r.interval = d
		} else {
			r.interval = DefaultHeartbeatInterval
		}
	}
}

// WithNow substitutes the clock (test instrumentation).
func WithNow(now func() time.Time) RegistryOption {
	return func(r *Registry) {
		if now != nil {
			r.now = now
		}
	}
}

// NewRegistry builds an empty registry.
func NewRegistry(opts ...RegistryOption) *Registry {
	r := &Registry{
		ttl:      DefaultTTL,
		interval: DefaultHeartbeatInterval,
		now:      time.Now,
		members:  make(map[string]Member),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// TTL returns the registration lease.
func (r *Registry) TTL() time.Duration { return r.ttl }

// HeartbeatInterval returns the cadence members are asked to beat at.
func (r *Registry) HeartbeatInterval() time.Duration { return r.interval }

// Upsert registers m or refreshes its lease and stats, returning the
// live member list (m included) so heartbeats double as the peer
// discovery channel. FirstSeen survives refreshes; LastSeen is stamped
// now.
func (r *Registry) Upsert(m Member) ([]Member, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	now := r.now()
	r.mu.Lock()
	if prev, ok := r.members[m.ID]; ok && now.Sub(prev.LastSeen) <= r.ttl {
		m.FirstSeen = prev.FirstSeen
	} else {
		m.FirstSeen = now
	}
	m.LastSeen = now
	r.members[m.ID] = m
	live := r.liveLocked(now)
	r.mu.Unlock()
	return live, nil
}

// Remove deregisters a member by id (graceful shutdown); unknown ids are
// a no-op.
func (r *Registry) Remove(id string) {
	r.mu.Lock()
	delete(r.members, id)
	r.mu.Unlock()
}

// Members returns the live members sorted by ID, evicting expired
// leases on the way.
func (r *Registry) Members() []Member {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveLocked(now)
}

// liveLocked evicts expired members and returns the survivors sorted by
// ID. Caller holds r.mu.
func (r *Registry) liveLocked(now time.Time) []Member {
	out := make([]Member, 0, len(r.members))
	for id, m := range r.members {
		if now.Sub(m.LastSeen) > r.ttl {
			delete(r.members, id)
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Rollup is the fleet-wide aggregate of the members' signals — what a
// coordinator's /healthz reports about the fleet it fronts.
type Rollup struct {
	Members      int   `json:"members"`
	Capacity     int   `json:"capacity"`
	Running      int   `json:"running"`
	Simulations  int64 `json:"simulations"`
	CacheEntries int64 `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	PeerHits     int64 `json:"peer_hits"`
	PeerMisses   int64 `json:"peer_misses"`
}

// Rollup aggregates the live members.
func (r *Registry) Rollup() Rollup {
	var out Rollup
	for _, m := range r.Members() {
		out.Members++
		out.Capacity += m.Capacity
		out.Running += m.Running
		out.Simulations += m.Simulations
		out.CacheEntries += m.CacheSize.Entries
		out.CacheBytes += m.CacheSize.Bytes
		out.CacheHits += m.Cache.Hits
		out.CacheMisses += m.Cache.Misses
		out.PeerHits += m.Cache.PeerHits
		out.PeerMisses += m.Cache.PeerMisses
	}
	return out
}
