package core

// Flight-recorder plumbing: Launch installs one bounded sim.FlightRecorder
// on the run's engine and, when the run ends badly — abort, watchdog
// timeout, deadlock — or survived a hard fault, writes a deterministic
// post-mortem dump to the configured sink. Everything in the dump derives
// from virtual time, so for a fixed configuration the bytes are identical
// run to run; chaos CLIs route the dump to stderr, keeping stdout
// byte-identical with recording on or off.

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// FlightConfig enables flight recording for a run.
type FlightConfig struct {
	// Depth is the ring capacity (sim.defaultFlightDepth when <= 0).
	Depth int
	// Sink, when non-nil, receives the deterministic post-mortem dump when
	// the run returns an error or recovered from a hard fault (crashed
	// ranks in the report).
	Sink io.Writer
	// Attach, when non-nil, is called with the freshly installed recorder,
	// before any rank is spawned. Live telemetry uses it to expose
	// /debug/flight mid-run.
	Attach func(fr *sim.FlightRecorder)
}

// flightState is a run's installed recorder and where its post-mortem goes.
type flightState struct {
	sink io.Writer
	rec  *sim.FlightRecorder
}

// install creates the recorder and installs it on the engine. Nil-safe: a
// nil config installs nothing and returns nil (and flightState methods accept
// a nil receiver), so Launch calls it unconditionally.
func (fc *FlightConfig) install(e *sim.Engine) *flightState {
	if fc == nil {
		return nil
	}
	fr := sim.NewFlightRecorder(fc.Depth)
	e.SetFlightRecorder(fr)
	if fc.Attach != nil {
		fc.Attach(fr)
	}
	return &flightState{sink: fc.Sink, rec: fr}
}

// dump writes the post-mortem: an outcome header, then the retained entries.
func (st *flightState) dump(outcome string) {
	if st == nil || st.sink == nil {
		return
	}
	fmt.Fprintf(st.sink, "== flight recorder dump: %s ==\n", outcome)
	st.rec.Dump(st.sink)
}
