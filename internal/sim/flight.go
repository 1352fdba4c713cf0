package sim

// Flight recorder: a bounded ring of the engine's most recent scheduler
// actions (event dispatches, parks, interrupts, kills, stop), kept so a
// chaos post-mortem can see the last moments of a failed run without paying
// for a full Chrome trace. One recorder serves one engine and records
// nothing unless installed (SetFlightRecorder), so the disabled cost on the
// dispatch/park hot path is a single nil check.
//
// Recording is zero-allocation: entries live in a fixed preallocated ring,
// and the strings stored (process names, park reasons) are the static
// strings the engine already holds. A mutex guards the ring so a live
// telemetry endpoint (/debug/flight) can snapshot it mid-run from another
// goroutine; the lock is only ever contended by that read-only sampler,
// never by a second writer, because exactly one goroutine holds the
// engine's ball at a time.
//
// Determinism: every recorded quantity derives from virtual time and the
// engine's deterministic schedule. For a fixed configuration the ring
// contents at any virtual time — and therefore the post-mortem dump — are
// bit-identical run to run.

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// flightKind classifies one flight-recorder entry.
type flightKind uint8

// The recorded scheduler actions.
const (
	flightEvent     flightKind = iota // a process resumed by the dispatcher
	flightCallback                    // an engine-context callback ran
	flightPark                        // a process parked, or a step of its script left it waiting (reason in note)
	flightInterrupt                   // interrupt poisoned a process
	flightKill                        // Kill crashed a process
	flightSpawn                       // a process was spawned
	flightStop                        // the run ended with an error (note)
)

func (k flightKind) String() string {
	switch k {
	case flightEvent:
		return "event"
	case flightCallback:
		return "callback"
	case flightPark:
		return "park"
	case flightInterrupt:
		return "interrupt"
	case flightKill:
		return "kill"
	case flightSpawn:
		return "spawn"
	case flightStop:
		return "stop"
	default:
		return fmt.Sprintf("flightKind(%d)", uint8(k))
	}
}

// flightEntry is one recorded scheduler action.
type flightEntry struct {
	// seq is the entry's position in the recorder's total history (the
	// first recorded entry is 1); it survives ring wrap, so a dump shows
	// how much history was discarded.
	seq  uint64
	at   Time
	kind flightKind
	// proc is the process the action concerns ("" for engine callbacks and
	// run-level stop entries).
	proc string
	// note carries the park reason, the interrupt/stop error text, or "".
	note string
	// dur is the park's duration detail (Advance length); negative when
	// the action carries none.
	dur Duration
}

// defaultFlightDepth is the ring capacity used when a non-positive depth is
// requested.
const defaultFlightDepth = 256

// FlightRecorder is a fixed-capacity ring of FlightEntries.
type FlightRecorder struct {
	mu  sync.Mutex
	buf []flightEntry
	n   uint64 // total entries ever recorded
}

// NewFlightRecorder returns a recorder holding the last depth entries
// (defaultFlightDepth when depth <= 0).
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = defaultFlightDepth
	}
	return &FlightRecorder{buf: make([]flightEntry, depth)}
}

// SetFlightRecorder installs (or, with nil, removes) the engine's flight
// recorder. Install it before Run; the engine records event dispatches,
// parks, interrupts, kills, and an error stop.
func (e *Engine) SetFlightRecorder(fr *FlightRecorder) { e.fr = fr }

// record appends one entry, overwriting the oldest when the ring is full.
// Strings must be static or already-allocated (process names, park reasons,
// pre-built error text): the hot path stores string headers only.
func (f *FlightRecorder) record(at Time, kind flightKind, proc, note string, dur Duration) {
	f.mu.Lock()
	f.buf[f.n%uint64(len(f.buf))] = flightEntry{
		seq: f.n + 1, at: at, kind: kind, proc: proc, note: note, dur: dur,
	}
	f.n++
	f.mu.Unlock()
}

// Total reports how many entries were ever recorded (including overwritten
// ones).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// snapshot copies the retained entries, oldest first. Safe to call from any
// goroutine, including mid-run.
func (f *FlightRecorder) snapshot() []flightEntry {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	depth := uint64(len(f.buf))
	count := f.n
	if count > depth {
		count = depth
	}
	out := make([]flightEntry, 0, count)
	for i := f.n - count; i < f.n; i++ {
		out = append(out, f.buf[i%depth])
	}
	return out
}

// Dump renders the retained entries as a deterministic text block,
// oldest first: sequence number, virtual time, kind, process, detail.
func (f *FlightRecorder) Dump(w io.Writer) error {
	entries := f.snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: %d entries retained of %d recorded\n",
		len(entries), f.Total())
	for _, e := range entries {
		fmt.Fprintf(&b, "  #%-8d %-12s %-9s %-12s", e.seq, e.at, e.kind, e.proc)
		if e.note != "" {
			b.WriteString(" " + e.note)
		}
		if e.dur >= 0 && e.kind == flightPark {
			b.WriteString(" " + e.dur.String())
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
