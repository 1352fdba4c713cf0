package telemetry

// FlightBoard: the live side of the flight recorders. A sweep cell's
// core.FlightConfig.Attach hook registers the cell's recorder here as the
// cell launches, and /debug/flight renders the most recent registrations
// mid-run. The board is bounded (a chaos sweep attaches one recorder per
// cell) and keeps the newest entries, which are the ones a live observer
// cares about.

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/sim"
)

// defaultBoardDepth is the registration capacity used when a non-positive
// depth is requested.
const defaultBoardDepth = 64

// boardSlot is one registered recorder.
type boardSlot struct {
	label string
	fr    *sim.FlightRecorder
}

// FlightBoard is a bounded ring of recently attached flight recorders.
type FlightBoard struct {
	mu  sync.Mutex
	buf []boardSlot
	n   uint64
}

// newFlightBoard returns a board retaining the last depth registrations
// (defaultBoardDepth when depth <= 0).
func newFlightBoard(depth int) *FlightBoard {
	if depth <= 0 {
		depth = defaultBoardDepth
	}
	return &FlightBoard{buf: make([]boardSlot, depth)}
}

// Attacher returns a core.FlightConfig.Attach-shaped hook registering the
// labelled cell's recorder on the board. Nil-safe: a nil board returns a
// nil hook (which core treats as no live attachment).
func (b *FlightBoard) Attacher(label string) func(fr *sim.FlightRecorder) {
	if b == nil {
		return nil
	}
	return func(fr *sim.FlightRecorder) {
		b.mu.Lock()
		b.buf[b.n%uint64(len(b.buf))] = boardSlot{label: label, fr: fr}
		b.n++
		b.mu.Unlock()
	}
}

// snapshot copies the retained slots, oldest first.
func (b *FlightBoard) snapshot() []boardSlot {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	depth := uint64(len(b.buf))
	count := b.n
	if count > depth {
		count = depth
	}
	out := make([]boardSlot, 0, count)
	for i := b.n - count; i < b.n; i++ {
		out = append(out, b.buf[i%depth])
	}
	return out
}

// Dump renders every retained recorder as text: a per-cell header, then
// the recorder's own dump. Safe to call mid-run; each recorder is sampled
// under its own lock.
func (b *FlightBoard) Dump(w io.Writer) error {
	slots := b.snapshot()
	var sb strings.Builder
	if len(slots) == 0 {
		sb.WriteString("no flight recorders attached\n")
	}
	for _, s := range slots {
		fmt.Fprintf(&sb, "== %s ==\n", s.label)
		s.fr.Dump(&sb)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
