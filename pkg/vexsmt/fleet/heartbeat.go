package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// Heartbeat keeps one daemon registered: it POSTs a fresh self-snapshot
// to the registry on the cadence the registry asks for, remembers the
// member list each response carries (Peers), and deregisters on the way
// out. Registry outages are absorbed — beats keep retrying on the last
// known cadence and the stale peer view stays usable until a response
// replaces it.
type Heartbeat struct {
	registry string
	client   *http.Client
	snapshot func() Member

	mu       sync.Mutex
	interval time.Duration
	peers    []Member
	lastErr  error
}

// HeartbeatOption configures a Heartbeat.
type HeartbeatOption func(*Heartbeat)

// WithHeartbeatClient substitutes the http.Client used for every
// request.
func WithHeartbeatClient(c *http.Client) HeartbeatOption {
	return func(h *Heartbeat) { h.client = c }
}

// NewHeartbeat builds a heartbeat against the registry at registryURL.
// snapshot is called once per beat and must return the member's current
// identity and stats (ID and URL must be stable across beats).
func NewHeartbeat(registryURL string, snapshot func() Member, opts ...HeartbeatOption) (*Heartbeat, error) {
	u, err := url.Parse(registryURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("fleet: registry url %q: need scheme and host", registryURL)
	}
	if snapshot == nil {
		return nil, fmt.Errorf("fleet: heartbeat needs a snapshot function")
	}
	h := &Heartbeat{
		registry: strings.TrimRight(registryURL, "/"),
		client:   http.DefaultClient,
		snapshot: snapshot,
		interval: DefaultHeartbeatInterval,
	}
	for _, o := range opts {
		o(h)
	}
	return h, nil
}

// Beat performs one registration round-trip, updating the peer view and
// the cadence from the response.
func (h *Heartbeat) Beat(ctx context.Context) error {
	m := h.snapshot()
	body, err := json.Marshal(m)
	if err != nil {
		return h.setErr(err)
	}
	ctx, cancel := context.WithTimeout(ctx, registryTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		h.registry+"/v1/fleet/register", bytes.NewReader(body))
	if err != nil {
		return h.setErr(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return h.setErr(fmt.Errorf("fleet: register with %s: %w", h.registry, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return h.setErr(fmt.Errorf("fleet: register with %s: status %d: %s",
			h.registry, resp.StatusCode, strings.TrimSpace(string(msg))))
	}
	var rr registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return h.setErr(fmt.Errorf("fleet: register response: %w", err))
	}
	h.mu.Lock()
	if d := time.Duration(rr.IntervalSeconds * float64(time.Second)); d > 0 {
		h.interval = d
	}
	h.peers = rr.Members
	h.lastErr = nil
	h.mu.Unlock()
	return nil
}

func (h *Heartbeat) setErr(err error) error {
	h.mu.Lock()
	h.lastErr = err
	h.mu.Unlock()
	return err
}

// Run beats until ctx is cancelled, then deregisters best-effort. Beat
// failures are retried on the next tick — a registry outage must not
// kill the daemon.
func (h *Heartbeat) Run(ctx context.Context) {
	for {
		_ = h.Beat(ctx)
		h.mu.Lock()
		d := h.interval
		h.mu.Unlock()
		select {
		case <-ctx.Done():
			h.deregister()
			return
		case <-time.After(d):
		}
	}
}

// Peers returns the member list from the most recent successful beat,
// excluding this member itself.
func (h *Heartbeat) Peers() []Member {
	self := h.snapshot().ID
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Member, 0, len(h.peers))
	for _, m := range h.peers {
		if m.ID != self {
			out = append(out, m)
		}
	}
	return out
}

// Err returns the most recent beat failure, nil after a successful beat
// (surfaced by daemons in logs/status, not fatal).
func (h *Heartbeat) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastErr
}

// deregister tells the registry this member is leaving. Best-effort with
// a fresh context: Run's context is already cancelled when shutdown
// reaches here.
func (h *Heartbeat) deregister() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		h.registry+"/v1/fleet/register?id="+url.QueryEscape(h.snapshot().ID), nil)
	if err != nil {
		return
	}
	if resp, err := h.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
