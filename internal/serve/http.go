package serve

// The HTTP face of the service. Endpoints:
//
//	POST /query    one spec as JSON → the canonical result document.
//	               Response headers: X-Uniconn-Spec-Hash (the content
//	               address) and X-Uniconn-Cache (hit|miss|coalesced).
//	               400 on malformed/unrunnable specs or bytes after the
//	               document, 413 on any body past maxQueryBytes, 503 under
//	               load shed or shutdown, 500 on evaluation failure.
//	GET  /stats    the service's operational snapshot (Stats).
//
// Everything else falls through to the telemetry plane's handler when one
// is mounted (NewHandler's fallback): /metrics, /healthz, /debug/runs,
// /debug/flight — the same endpoints every sweep CLI serves under -live.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/spec"
)

// maxQueryBytes caps a /query request body. A spec document is a few hundred
// bytes; a body past the cap is refused whatever it holds.
const maxQueryBytes = 1 << 20

// bodies recycles the buffers /query bodies are read into. A buffer grown
// past maxPooledBody by an oversized body is dropped rather than pooled.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

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
	s, err := readSpec(w, req)
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
	// The keys are canonical already, so they are stored directly rather
	// than through Header.Set; the three values share one allocation.
	vals := [...]string{"application/json", h, source}
	hdr := w.Header()
	hdr["Content-Type"] = vals[0:1:1]
	hdr["X-Uniconn-Spec-Hash"] = vals[1:2:2]
	hdr["X-Uniconn-Cache"] = vals[2:3:3]
	w.Write(body) //nolint:errcheck // client went away
}

// readSpec reads the whole body, up to maxQueryBytes, into a pooled buffer
// and decodes it with spec.Decode. Unknown fields are refused rather than
// ignored: a misspelled field would silently address a different cell than
// the client meant. So is anything but whitespace after the one document.
func readSpec(w http.ResponseWriter, req *http.Request) (spec.Spec, error) {
	buf := bodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodies.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, req.Body, maxQueryBytes)); err != nil {
		return spec.Spec{}, err
	}
	return spec.Decode(buf.Bytes())
}

// handleStats serves the operational snapshot.
func (sv *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(sv.Stats()) //nolint:errcheck // client went away
}
