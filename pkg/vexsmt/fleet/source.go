package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"vexsmt/pkg/vexsmt/shard"
)

// membersToBackends maps live members to HTTP shard backends, passing
// opts (e.g. shard.WithClient for a custom or fault-injecting
// transport) to every backend. A member whose advertised URL does not
// parse is skipped (it could never have registered with one, but the
// registry is not the only possible producer of a Member list).
func membersToBackends(members []Member, opts ...shard.HTTPOption) []shard.Backend {
	out := make([]shard.Backend, 0, len(members))
	for _, m := range members {
		b, err := shard.NewHTTP(m.URL, opts...)
		if err != nil {
			continue
		}
		out = append(out, b)
	}
	return out
}

// registrySource adapts an in-process Registry to shard.Source.
type registrySource struct{ r *Registry }

func (s registrySource) Backends(context.Context) ([]shard.Backend, error) {
	return membersToBackends(s.r.Members()), nil
}

// ShardSource exposes the registry's live membership as a shard backend
// source: a coordinator built with shard.NewFromSource re-resolves it at
// every sweep, so daemons joining or leaving between sweeps need no
// coordinator restart.
func (r *Registry) ShardSource() shard.Source { return registrySource{r} }

// HTTPSource is a shard.Source backed by a remote registry: each
// resolution GETs /v1/fleet/members and builds an HTTP backend per live
// member. This is how a vexsmtctl on one machine sweeps a fleet whose
// registry lives on another.
type HTTPSource struct {
	base   string
	client *http.Client
}

// NewHTTPSource builds a source against the registry at registryURL.
func NewHTTPSource(registryURL string, client *http.Client) (*HTTPSource, error) {
	u, err := url.Parse(registryURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("fleet: registry url %q: need scheme and host", registryURL)
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPSource{base: strings.TrimRight(registryURL, "/"), client: client}, nil
}

// Backends implements shard.Source. The source's own client (transport
// included) carries over to every backend it yields, so a sweep whose
// registry lookups go through a custom transport — a proxy, a fault
// injector — submits its cells through the same one.
func (s *HTTPSource) Backends(ctx context.Context) ([]shard.Backend, error) {
	members, err := FetchMembers(ctx, s.client, s.base)
	if err != nil {
		return nil, err
	}
	return membersToBackends(members, shard.WithClient(s.client)), nil
}

// FetchMembers GETs a registry's live member list — shared by HTTPSource
// and status tooling. A nil client uses http.DefaultClient.
func FetchMembers(ctx context.Context, client *http.Client, registryURL string) ([]Member, error) {
	if client == nil {
		client = http.DefaultClient
	}
	ctx, cancel := context.WithTimeout(ctx, registryTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(registryURL, "/")+"/v1/fleet/members", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: members from %s: %w", registryURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("fleet: members from %s: status %d: %s",
			registryURL, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var out struct {
		Members []Member `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("fleet: members from %s: %w", registryURL, err)
	}
	return out.Members, nil
}
