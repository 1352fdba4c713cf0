package telemetry

// The live HTTP plane. Endpoints:
//
//	/metrics       Prometheus text exposition of the tracker's merged,
//	               cumulative snapshot (?format=json for the JSON form)
//	/healthz       liveness JSON: status, uptime, run counts
//	/debug/runs    sweep progress JSON: cells done/total, per-worker
//	               current cell, ETA from completed-cell wall times
//	/debug/flight  text dump of the flight recorders of in-flight cells
//
// The server only ever reads the tracker (mutex-guarded samples) and writes
// only to HTTP responses, so serving a scrape cannot perturb a running
// sweep or its stdout.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// ReadHeaderTimeout is how long a connection may take to deliver its request
// headers before this server and uniconn serve drop it. Without a bound, every
// client that stalls mid-header holds a connection and its goroutine forever.
const ReadHeaderTimeout = 10 * time.Second

// Server serves the live endpoints for one tracker.
type Server struct {
	t             *Tracker
	mux           *http.ServeMux
	headerTimeout time.Duration // ReadHeaderTimeout; tests shorten it before start

	mu      sync.Mutex
	httpSrv *http.Server
}

// NewServer returns a server for t (which may be nil: the endpoints then
// serve empty progress and metrics, still useful as a liveness check).
func NewServer(t *Tracker) *Server {
	s := &Server{t: t, headerTimeout: ReadHeaderTimeout}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/runs", s.handleRuns)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	s.mux = mux
	return s
}

// Handler exposes the endpoint mux (for httptest and for embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// start listens on addr (host:port; :0 picks a free port) and serves in a
// background goroutine until Close. It returns the bound address.
func (s *Server) start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: s.headerTimeout}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ln.Addr().String(), nil
}

// Close stops the listener. Safe to call without start.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.httpSrv
	s.httpSrv = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// handleMetrics serves the merged cumulative snapshot, the form Prometheus'
// rate() expects: Prometheus text by default, ?format=json for the JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	snap := s.t.MetricsSnapshot()
	if req.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		snap.WriteJSON(w) //nolint:errcheck // client went away
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.WritePrometheus(w) //nolint:errcheck // client went away
}

// handleHealthz serves a liveness document.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	runs := s.t.Runs()
	active := 0
	for _, r := range runs {
		if !r.Ended {
			active++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\n  \"status\": \"ok\",\n  \"uptime_seconds\": %.3f,\n  \"runs_total\": %d,\n  \"runs_active\": %d\n}\n",
		s.t.uptime().Seconds(), len(runs), active)
}

// handleRuns serves the sweep progress document.
func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	runs := s.t.Runs()
	if runs == nil {
		runs = []runStatus{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		SampledAt string      `json:"sampled_at"`
		Runs      []runStatus `json:"runs"`
	}{time.Now().UTC().Format(time.RFC3339Nano), runs}) //nolint:errcheck
}

// handleFlight serves the flight board as text.
func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.t.Flight().Dump(w) //nolint:errcheck // client went away
}

// StartLive is the CLIs' one-call live plane: a fresh tracker served on addr
// (host:port; :0 picks a free port), with the endpoint list announced on
// stderr — never stdout, which belongs to the deterministic run output.
// Close the returned server when the CLI exits.
func StartLive(addr string) (*Tracker, *Server, error) {
	t := NewTracker()
	s := NewServer(t)
	bound, err := s.start(addr)
	if err != nil {
		return nil, nil, fmt.Errorf("telemetry: listen on %s: %w", addr, err)
	}
	fmt.Fprintf(os.Stderr, "live telemetry on http://%s  (/metrics /healthz /debug/runs /debug/flight)\n", bound)
	return t, s, nil
}

// WriteProgress renders a one-line-per-run progress summary — what a CLI
// prints to stderr when a sweep is cut short. Nil-safe.
func (t *Tracker) WriteProgress(w io.Writer) {
	for _, st := range t.Runs() {
		state := "running"
		if st.Ended {
			state = "done"
		}
		fmt.Fprintf(w, "run %q: %d/%d cells (%s, %.1fs elapsed)\n",
			st.Label, st.Done, st.Total, state, st.ElapsedSeconds)
	}
}
