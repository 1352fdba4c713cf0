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

// FlightKind classifies one flight-recorder entry.
type FlightKind uint8

// The recorded scheduler actions.
const (
	FlightEvent     FlightKind = iota // a process resumed by the dispatcher
	FlightCallback                    // an engine-context callback ran
	FlightPark                        // a process parked, or a step of its script left it waiting (reason in Note)
	FlightInterrupt                   // Interrupt poisoned a process
	FlightKill                        // Kill crashed a process
	FlightSpawn                       // a process was spawned
	FlightStop                        // the run ended with an error (Note)
)

func (k FlightKind) String() string {
	switch k {
	case FlightEvent:
		return "event"
	case FlightCallback:
		return "callback"
	case FlightPark:
		return "park"
	case FlightInterrupt:
		return "interrupt"
	case FlightKill:
		return "kill"
	case FlightSpawn:
		return "spawn"
	case FlightStop:
		return "stop"
	default:
		return fmt.Sprintf("FlightKind(%d)", uint8(k))
	}
}

// FlightEntry is one recorded scheduler action.
type FlightEntry struct {
	// Seq is the entry's position in the recorder's total history (the
	// first recorded entry is 1); it survives ring wrap, so a dump shows
	// how much history was discarded.
	Seq  uint64
	At   Time
	Kind FlightKind
	// Proc is the process the action concerns ("" for engine callbacks and
	// run-level stop entries).
	Proc string
	// Note carries the park reason, the interrupt/stop error text, or "".
	Note string
	// Dur is the park's duration detail (Advance length); negative when
	// the action carries none.
	Dur Duration
}

// DefaultFlightDepth is the ring capacity used when a non-positive depth is
// requested.
const DefaultFlightDepth = 256

// FlightRecorder is a fixed-capacity ring of FlightEntries.
type FlightRecorder struct {
	mu  sync.Mutex
	buf []FlightEntry
	n   uint64 // total entries ever recorded
}

// NewFlightRecorder returns a recorder holding the last depth entries
// (DefaultFlightDepth when depth <= 0).
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	return &FlightRecorder{buf: make([]FlightEntry, depth)}
}

// SetFlightRecorder installs (or, with nil, removes) the engine's flight
// recorder. Install it before Run; the engine records event dispatches,
// parks, interrupts, kills, and an error stop.
func (e *Engine) SetFlightRecorder(fr *FlightRecorder) { e.fr = fr }

// FlightRecorder reports the installed recorder (nil when disabled).
func (e *Engine) FlightRecorder() *FlightRecorder { return e.fr }

// record appends one entry, overwriting the oldest when the ring is full.
// Strings must be static or already-allocated (process names, park reasons,
// pre-built error text): the hot path stores string headers only.
func (f *FlightRecorder) record(at Time, kind FlightKind, proc, note string, dur Duration) {
	f.mu.Lock()
	f.buf[f.n%uint64(len(f.buf))] = FlightEntry{
		Seq: f.n + 1, At: at, Kind: kind, Proc: proc, Note: note, Dur: dur,
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

// Snapshot copies the retained entries, oldest first. Safe to call from any
// goroutine, including mid-run.
func (f *FlightRecorder) Snapshot() []FlightEntry {
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
	out := make([]FlightEntry, 0, count)
	for i := f.n - count; i < f.n; i++ {
		out = append(out, f.buf[i%depth])
	}
	return out
}

// Dump renders the retained entries as a deterministic text block,
// oldest first: sequence number, virtual time, kind, process, detail.
func (f *FlightRecorder) Dump(w io.Writer) error {
	entries := f.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: %d entries retained of %d recorded\n",
		len(entries), f.Total())
	for _, e := range entries {
		fmt.Fprintf(&b, "  #%-8d %-12s %-9s %-12s", e.Seq, e.At, e.Kind, e.Proc)
		if e.Note != "" {
			b.WriteString(" " + e.Note)
		}
		if e.Dur >= 0 && e.Kind == FlightPark {
			b.WriteString(" " + e.Dur.String())
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
