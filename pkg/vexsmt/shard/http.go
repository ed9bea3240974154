package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/resilience"
	"vexsmt/pkg/vexsmt/sched"
)

// HTTP is the remote backend: it runs each job on a vexsmtd daemon in one
// request of its /v1 control plane — POST /v1/plans, which answers with
// the plan's ack and then its NDJSON results stream. The daemon ties
// the plan's life to that request, so context cancellation closes the
// stream and reaches the remote simulation within one timeslice-bounded
// poll.
type HTTP struct {
	base          string
	client        *http.Client
	healthTimeout time.Duration
}

// defaultHealthTimeout bounds a /healthz probe: health checks are a
// placement signal, and a daemon that cannot answer one quickly should be
// left out of the round rather than stall it. The value is the fleet-wide
// probe policy's attempt budget (resilience.Probe).
var defaultHealthTimeout = resilience.Probe().AttemptTimeout

// HTTPOption configures an HTTP backend.
type HTTPOption func(*HTTP)

// WithClient substitutes the http.Client used for every request (for
// custom transports or timeouts). Clients must not set an overall request
// timeout shorter than a job's runtime: the results stream stays open
// for the whole simulation.
func WithClient(c *http.Client) HTTPOption {
	return func(h *HTTP) { h.client = c }
}

// WithHealthTimeout bounds each Health probe. Zero or negative restores
// the default (2s). Job submission and result streaming are unaffected —
// only the /healthz round-trip is clamped.
func WithHealthTimeout(d time.Duration) HTTPOption {
	return func(h *HTTP) {
		if d > 0 {
			h.healthTimeout = d
		} else {
			h.healthTimeout = defaultHealthTimeout
		}
	}
}

// NewHTTP builds a backend for the vexsmtd at baseURL (e.g.
// "http://host:8080").
func NewHTTP(baseURL string, opts ...HTTPOption) (*HTTP, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("shard: backend url %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("shard: backend url %q: need scheme and host", baseURL)
	}
	h := &HTTP{
		base:          strings.TrimRight(baseURL, "/"),
		client:        http.DefaultClient,
		healthTimeout: defaultHealthTimeout,
	}
	for _, o := range opts {
		o(h)
	}
	return h, nil
}

// Name implements Backend: the base URL identifies the daemon.
func (h *HTTP) Name() string { return h.base }

// Health implements Backend via GET /healthz, bounded by the backend's
// health timeout (WithHealthTimeout) on top of whatever deadline ctx
// already carries.
func (h *HTTP) Health(ctx context.Context) (Health, error) {
	ctx, cancel := context.WithTimeout(ctx, h.healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/healthz", nil)
	if err != nil {
		return Health{}, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return Health{}, fmt.Errorf("shard: %s: healthz: %w", h.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Health{}, fmt.Errorf("shard: %s: healthz: status %d", h.base, resp.StatusCode)
	}
	var out struct {
		Capacity      int    `json:"capacity"`
		Running       int    `json:"running"`
		Scale         int64  `json:"scale"`
		Seed          uint64 `json:"seed"`
		SchemaVersion int    `json:"schema_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return Health{}, fmt.Errorf("shard: %s: healthz: %w", h.base, err)
	}
	return Health{
		Capacity:      out.Capacity,
		Running:       out.Running,
		Scale:         out.Scale,
		Seed:          out.Seed,
		SchemaVersion: out.SchemaVersion,
	}, nil
}

// techniqueList is the RunMeta.Techniques every daemon stamps: services
// run one fixed technique list, so an ack carrying another comes from a
// build that disagrees about the grid.
var techniqueList = strings.Join(vexsmt.Techniques(), ",")

// Run implements Backend: submit the job's cells as a plan pinned to the
// job's seed and scale, and read the reply — the ack line, then the cells
// and the terminal status — with one scanner. Returning before the
// terminal line closes the stream, which makes the daemon cancel the plan.
func (h *HTTP) Run(ctx context.Context, job Job) (*vexsmt.ResultSet, error) {
	submit := struct {
		Cells []vexsmt.CellSpec `json:"cells"`
		Scale int64             `json:"scale"`
		Seed  uint64            `json:"seed"`
		Cache string            `json:"cache,omitempty"`
	}{Cells: job.Cells, Scale: job.Scale, Seed: job.Seed}
	if job.CacheOff {
		submit.Cache = "off"
	}
	body, err := json.Marshal(submit)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/v1/plans", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard: %s: submit: %w", h.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("shard: %s: submit: status %d: %s",
			h.base, resp.StatusCode, strings.TrimSpace(string(msg)))
	}

	sc := newLineScanner(resp.Body)
	var ack struct {
		Meta vexsmt.RunMeta `json:"meta"`
	}
	if !sc.Scan() {
		err = sc.Err()
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
	} else {
		err = json.Unmarshal(sc.Bytes(), &ack)
	}
	if err != nil {
		return nil, fmt.Errorf("shard: %s: submit response: %w", h.base, err)
	}
	// Guard against a daemon that ignored the overrides or disagrees about
	// the grid: running a job at a foreign seed, scale or technique set
	// would only be caught downstream after wasted simulation.
	if ack.Meta.SchemaVersion != vexsmt.SchemaVersion ||
		ack.Meta.Seed != job.Seed || ack.Meta.Scale != job.Scale ||
		ack.Meta.Techniques != techniqueList {
		return nil, fmt.Errorf("shard: %s: daemon accepted plan with meta %+v; job wants schema v%d seed %d scale 1/%d techniques %q",
			h.base, ack.Meta, vexsmt.SchemaVersion, job.Seed, job.Scale, techniqueList)
	}

	rs := &vexsmt.ResultSet{Meta: ack.Meta}
	status, jobErr, err := decodeResults(sc, func(cell vexsmt.CellResult) {
		if cell.Err != "" {
			return // the terminal status line will carry the failure
		}
		rs.Cells = append(rs.Cells, cell)
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, fmt.Errorf("shard: %s: %w", h.base, err)
	}
	switch status {
	case "done":
	case "":
		return nil, fmt.Errorf("shard: %s: stream ended without terminal status (daemon died?)", h.base)
	case "failed":
		// A failed plan is a deterministic simulation failure (cell seeds
		// travel with the cells); rerunning it elsewhere reproduces it.
		return nil, sched.Permanent(fmt.Errorf("shard: %s: plan failed: %s", h.base, jobErr))
	default:
		return nil, fmt.Errorf("shard: %s: plan %s: %s", h.base, status, jobErr)
	}
	// Nothing follows the terminal line; reading on to EOF lets the
	// transport reuse the connection for the next cell.
	_, _ = io.Copy(io.Discard, resp.Body)
	rs.Sort()
	return rs, nil
}
