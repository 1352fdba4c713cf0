package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

type runsDoc struct {
	Runs []runStatus `json:"runs"`
}

func TestRunsEndpointTracksProgress(t *testing.T) {
	tr := NewTracker()
	srv := httptest.NewServer(NewServer(tr).Handler())
	defer srv.Close()

	run := tr.StartRun("chaos", 10, 2)
	run.CellStart(0, 0, "cell-0")
	run.CellStart(1, 1, "cell-1")

	var doc runsDoc
	_, body := get(t, srv, "/debug/runs")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid /debug/runs JSON: %v\n%s", err, body)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	st := doc.Runs[0]
	if st.Label != "chaos" || st.Total != 10 || st.Done != 0 || st.Workers != 2 {
		t.Fatalf("run status wrong: %+v", st)
	}
	if len(st.Current) != 2 || st.Current[0].Worker != 0 || st.Current[1].Label != "cell-1" {
		t.Fatalf("current cells wrong: %+v", st.Current)
	}
	if st.ETASeconds >= 0 {
		t.Fatalf("ETA with no completed cells = %v, want negative (unknown)", st.ETASeconds)
	}

	run.CellDone(0, 0)
	run.CellDone(1, 1)
	_, body = get(t, srv, "/debug/runs")
	doc = runsDoc{} // a reused doc would keep omitempty fields from the last decode
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	st = doc.Runs[0]
	if st.Done != 2 || len(st.Current) != 0 {
		t.Fatalf("after completion: %+v", st)
	}
	if st.ETASeconds < 0 {
		t.Fatalf("ETA with completed cells = %v, want >= 0", st.ETASeconds)
	}

	run.End()
	_, body = get(t, srv, "/debug/runs")
	doc = runsDoc{}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if st = doc.Runs[0]; !st.Ended || st.ETASeconds != 0 {
		t.Fatalf("ended run status: %+v", st)
	}
}

func TestMetricsEndpointFormatsCumulative(t *testing.T) {
	tr := NewTracker()
	s := NewServer(tr)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	r := metrics.New()
	r.Counter("sim.events").Add(7)
	r.Gauge("fabric.occupancy.max").Set(0.5)
	tr.AddSnapshot(r.Snapshot())
	run := tr.StartRun("bench", 1, 1)
	run.CellStart(0, 0, "c")
	run.CellDone(0, 0)

	_, prom := get(t, srv, "/metrics")
	for _, want := range []string{
		"# TYPE sim_events counter\nsim_events 7\n",
		"fabric_occupancy_max 0.5",
		"telemetry_cells_done 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}

	_, js := get(t, srv, "/metrics?format=json")
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(js), &snap); err != nil {
		t.Fatalf("invalid /metrics?format=json: %v\n%s", err, js)
	}

	// A delta query is not a mode: every client, from any address and
	// however often it scrapes, reads the same cumulative body as /metrics.
	delta := "/metrics?" + url.Values{"delta": {"1"}}.Encode()
	for i := range 100 {
		for _, path := range []string{"/metrics", delta, delta} {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.RemoteAddr = fmt.Sprintf("10.0.0.%d:%d", i%50, 40000+i)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if got := rec.Body.String(); got != prom {
				t.Fatalf("%s from %s differs from /metrics:\n%s\nwant\n%s", path, req.RemoteAddr, got, prom)
			}
		}
	}
}

func TestHealthz(t *testing.T) {
	tr := NewTracker()
	srv := httptest.NewServer(NewServer(tr).Handler())
	defer srv.Close()
	tr.StartRun("x", 4, 1)
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var doc struct {
		Status     string  `json:"status"`
		Uptime     float64 `json:"uptime_seconds"`
		RunsTotal  int     `json:"runs_total"`
		RunsActive int     `json:"runs_active"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid healthz JSON: %v\n%s", err, body)
	}
	if doc.Status != "ok" || doc.RunsTotal != 1 || doc.RunsActive != 1 {
		t.Fatalf("healthz wrong: %+v", doc)
	}
}

func TestFlightEndpoint(t *testing.T) {
	tr := NewTracker()
	srv := httptest.NewServer(NewServer(tr).Handler())
	defer srv.Close()

	_, body := get(t, srv, "/debug/flight")
	if !strings.Contains(body, "no flight recorders attached") {
		t.Fatalf("empty board rendering wrong:\n%s", body)
	}

	// Attach a recorder the way core.Launch would, run a simulation, scrape.
	attach := tr.Flight().Attacher("cell[0]")
	e := sim.NewEngine()
	defer e.Close()
	fr := sim.NewFlightRecorder(16)
	e.SetFlightRecorder(fr)
	attach(fr)
	e.Spawn("p", func(p *sim.Proc) { p.Advance(5) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, srv, "/debug/flight")
	for _, want := range []string{"== cell[0] ==", "flight recorder:", "spawn"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/flight missing %q:\n%s", want, body)
		}
	}
}

// TestNilTrackerSafety pins the disabled path: a nil tracker hands out
// no-op run handles, and a server over a nil tracker still answers every
// endpoint.
func TestNilTrackerSafety(t *testing.T) {
	var tr *Tracker
	run := tr.StartRun("x", 1, 1)
	run.CellStart(0, 0, "c")
	run.CellDone(0, 0)
	run.End()
	tr.AddSnapshot(metrics.Snapshot{})
	if !tr.MetricsSnapshot().Empty() {
		t.Fatal("nil tracker snapshot not empty")
	}
	if tr.Flight().Attacher("x") != nil {
		t.Fatal("nil board must hand out a nil attach hook")
	}

	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/metrics?format=json", "/healthz", "/debug/runs", "/debug/flight"} {
		if code, _ := get(t, srv, path); code != http.StatusOK {
			t.Errorf("%s over nil tracker: status %d", path, code)
		}
	}
}

func TestServerStartClose(t *testing.T) {
	s := NewServer(NewTracker())
	addr, err := s.start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// TestStalledHeadersAreDisconnected: a client that opens a connection and
// never finishes its request headers is dropped once the header timeout
// passes, instead of holding the connection for the life of the process.
func TestStalledHeadersAreDisconnected(t *testing.T) {
	s := NewServer(NewTracker())
	if s.headerTimeout != ReadHeaderTimeout || ReadHeaderTimeout != 10*time.Second {
		t.Fatalf("header timeout = %v (const %v), want 10s", s.headerTimeout, ReadHeaderTimeout)
	}
	s.headerTimeout = 50 * time.Millisecond
	addr, err := s.start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	// The deadline only bounds the failure case: without ReadHeaderTimeout
	// the server waits for the rest of the headers and this read times out.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rest, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept the stalled connection open (read %q, err %v)", rest, err)
	}
}
