package serve

// The HTTP face of the service. Endpoints:
//
//	POST /query    one spec as JSON → the canonical result document.
//	               Response headers: X-Uniconn-Spec-Hash (the content
//	               address) and X-Uniconn-Cache (hit|miss|coalesced).
//	               400 on malformed/unrunnable specs or bytes after the
//	               document, 413 past maxQueryBytes, 503 under load shed or
//	               shutdown, 500 on evaluation failure.
//	GET  /stats    the service's operational snapshot (Stats).
//
// Everything else falls through to the telemetry plane's handler when one
// is mounted (NewHandler's fallback): /metrics, /healthz, /debug/runs,
// /debug/flight — the same endpoints every sweep CLI serves under -live.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/spec"
)

// maxQueryBytes caps a /query request body. A spec document is a few hundred
// bytes; the cap only keeps a hostile client from making the decoder buffer
// an unbounded body.
const maxQueryBytes = 1 << 20

// NewHandler routes the service's endpoints, with every unclaimed path
// served by fallback (pass the telemetry server's Handler; nil serves 404).
func NewHandler(sv *Service, fallback http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", sv.handleQuery)
	mux.HandleFunc("/stats", sv.handleStats)
	if fallback != nil {
		mux.Handle("/", fallback)
	}
	return mux
}

// handleQuery answers one spec.
func (sv *Service) handleQuery(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a spec JSON document", http.StatusMethodNotAllowed)
		return
	}
	// Unknown fields are rejected rather than ignored: a misspelled field
	// would silently address a different cell than the client meant. The
	// body must be exactly one document: a second value is rejected too.
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxQueryBytes))
	dec.DisallowUnknownFields()
	var s spec.Spec
	err := dec.Decode(&s)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the spec document")
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad spec JSON: %v", err), code)
		return
	}
	if err := s.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h := s.Hash()
	body, source, err := sv.query(s, h)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, errOverloaded) || errors.Is(err, errClosed) {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Uniconn-Spec-Hash", h)
	w.Header().Set("X-Uniconn-Cache", source)
	w.Write(body) //nolint:errcheck // client went away
}

// handleStats serves the operational snapshot.
func (sv *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(sv.Stats()) //nolint:errcheck // client went away
}
