package sim

// Engine metrics: scheduler-level counters resolved once at SetMetrics so
// the hot paths (Run's dispatch loop, Proc.parkFor) pay exactly one nil
// check when metrics are disabled and zero allocations either way. The
// allocation guard in sim_test.go pins the disabled-mode cost.

import (
	"strings"

	"repro/internal/metrics"
)

// parkClasses are the known first words of park reasons (see cond.go and
// the Advance park). Reasons are classified by their first word so
// per-label reasons like "gate send 0->1 tag 5" do not explode counter
// cardinality. Nothing parks with "yield" or "semaphore" any more, and a
// "mailbox" park is left only where a GPU stream's daemon enters its script
// with nothing to serve (at its start, and after running a kernel body); the
// classes stay so the metrics reports keep the same counter set. Only
// coroutine parks are counted: a script step (AdvanceFn) that re-arms its
// timer or enlists on a primitive is a sim.steps, not a park.
var parkClasses = []string{
	"advance", "yield", "gate", "counter", "mailbox", "semaphore", "rendezvous",
}

// engineMetrics holds the engine's pre-resolved instruments. A nil
// *engineMetrics means metrics are disabled.
type engineMetrics struct {
	events     *metrics.Counter // every event dispatched by Run
	callbacks  *metrics.Counter // the subset that were engine callbacks
	steps      *metrics.Counter // the subset a script step took without resuming its coroutine
	spawns     *metrics.Counter
	interrupts *metrics.Counter
	kills      *metrics.Counter
	parks      map[string]*metrics.Counter // by park-reason class
	parkOther  *metrics.Counter            // reasons outside parkClasses
}

// SetMetrics installs a registry on the engine; nil disables collection
// (the default). Must be called before Run.
func (e *Engine) SetMetrics(r *metrics.Registry) {
	if r == nil {
		e.m = nil
		return
	}
	m := &engineMetrics{
		events:     r.Counter("sim.events"),
		callbacks:  r.Counter("sim.callbacks"),
		steps:      r.Counter("sim.steps"),
		spawns:     r.Counter("sim.spawns"),
		interrupts: r.Counter("sim.interrupts"),
		kills:      r.Counter("sim.kills"),
		parks:      make(map[string]*metrics.Counter, len(parkClasses)),
		parkOther:  r.Counter("sim.parks.other"),
	}
	for _, class := range parkClasses {
		m.parks[class] = r.Counter("sim.parks." + class)
	}
	e.m = m
}

// countPark classifies a park reason by its first word and bumps the class
// counter. The substring is a slice of the static reason string, so the
// lookup performs no allocation.
func (m *engineMetrics) countPark(why string) {
	class := why
	if i := strings.IndexByte(why, ' '); i >= 0 {
		class = why[:i]
	}
	if c := m.parks[class]; c != nil {
		c.Inc()
		return
	}
	m.parkOther.Inc()
}
