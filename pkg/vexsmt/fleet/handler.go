package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// registerResponse answers a registration/heartbeat: the lease terms the
// member must honor and the live membership, so every beat refreshes the
// member's peer view without a second round-trip.
type registerResponse struct {
	IntervalSeconds float64  `json:"interval_seconds"`
	TTLSeconds      float64  `json:"ttl_seconds"`
	Members         []Member `json:"members"`
}

// Handler exposes the registry over HTTP:
//
//	POST   /v1/fleet/register       register/heartbeat (body: Member)
//	DELETE /v1/fleet/register?id=X  deregister (graceful shutdown)
//	GET    /v1/fleet/members        live member list
//
// Paths are absolute, so the same handler serves both mounted on a
// daemon's mux and standalone (vexsmtctl -coordinator).
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/fleet/register", r.handleRegister)
	mux.HandleFunc("/v1/fleet/members", r.handleMembers)
	return mux
}

func (r *Registry) handleRegister(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodPost:
		var m Member
		if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20)).Decode(&m); err != nil {
			fleetError(w, http.StatusBadRequest, "bad member: %v", err)
			return
		}
		members, err := r.Upsert(m)
		if err != nil {
			fleetError(w, http.StatusBadRequest, "%v", err)
			return
		}
		fleetJSON(w, http.StatusOK, registerResponse{
			IntervalSeconds: r.interval.Seconds(),
			TTLSeconds:      r.ttl.Seconds(),
			Members:         members,
		})
	case http.MethodDelete:
		id := req.URL.Query().Get("id")
		if id == "" {
			fleetError(w, http.StatusBadRequest, "deregister needs an id")
			return
		}
		r.Remove(id)
		w.WriteHeader(http.StatusNoContent)
	default:
		fleetError(w, http.StatusMethodNotAllowed, "use POST or DELETE")
	}
}

func (r *Registry) handleMembers(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		fleetError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	fleetJSON(w, http.StatusOK, map[string]any{"members": r.Members()})
}

func fleetJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func fleetError(w http.ResponseWriter, code int, format string, args ...any) {
	fleetJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
