package sim

import (
	"bytes"
	"slices"
	"testing"
)

// TestShift moves a running simulation 100 ns later from inside a process:
// the state relative to now encodes the same before and after, and every
// pending wake and callback lands 100 ns later, in its order.
func TestShift(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var woke []Time
	for _, d := range []Duration{30, 10, 20} {
		e.Spawn("sleeper", func(p *Proc) {
			p.Advance(d)
			woke = append(woke, p.Now())
		})
	}
	e.Spawn("shifter", func(p *Proc) {
		p.Advance(5)
		e.After(7, func() { woke = append(woke, e.Now()) })
		before, ok := e.AppendState(nil)
		e.Shift(100)
		after, ok2 := e.AppendState(nil)
		if !ok || !ok2 || !bytes.Equal(before, after) {
			t.Errorf("state before the shift %x (ok %v), after %x (ok %v)", before, ok, after, ok2)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{110, 112, 120, 130}; !slices.Equal(woke, want) {
		t.Errorf("woke at %v, want %v", woke, want)
	}

	w := NewEngine()
	defer w.Close()
	w.SetWatchdog(1000)
	if _, ok := w.AppendState(nil); ok {
		t.Error("AppendState under a watchdog reported ok")
	}
}
