package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// A deferred charge (Charge) must be indistinguishable, in everything the
// engine records, from the Advance it stands for: the tests below run one
// program with each charge written both ways and compare the records.

type copKind uint8

const (
	copCharge    copKind = iota // Charge(d) in the deferred form, Advance(d) in the eager one
	copAdvance                  // Advance(d)
	copNow                      // observe the clock
	copWait                     // Wait on gate arg
	copFire                     // Fire gate arg
	copAdd                      // Add 1 to the counter
	copWaitGE                   // WaitGE(arg) on the counter
	copPut                      // Put to the mailbox
	copSpawn                    // spawn a child running the op list arg
	copInterrupt                // interrupt top-level process arg
	copKill                     // kill top-level process arg
	copKinds
)

type cop struct {
	kind copKind
	d    Duration
	arg  int
}

// chargeProgram is one random program: the top-level processes' op lists,
// the children they may spawn, and when callbacks fire each gate.
type chargeProgram struct {
	procs, children [][]cop
	fireAt          []Duration
}

// newChargeProgram draws a program from rng. Charges come in runs, and every
// other kind is drawn often enough that a run is settled by each of them.
func newChargeProgram(rng *rand.Rand) chargeProgram {
	nproc, ngate := 1+rng.Intn(5), 1+rng.Intn(3)
	pr := chargeProgram{fireAt: make([]Duration, ngate)}
	for g := range pr.fireAt {
		pr.fireAt[g] = Duration(rng.Intn(40)) * 5 // many ties with the charges below
	}
	ops := func(n int, top bool) []cop {
		var out []cop
		for ; n > 0; n-- {
			kind := copKind(rng.Intn(int(copKinds)))
			switch {
			case rng.Intn(3) == 0:
				kind = copCharge
			case !top && kind >= copSpawn:
				kind = copNow
			case kind == copKill && rng.Intn(3) > 0:
				kind = copCharge // a kill ends its target's program: keep them rare
			}
			op := cop{kind: kind, d: Duration(rng.Intn(4)) * 5}
			switch kind {
			case copWait, copFire:
				op.arg = rng.Intn(ngate)
			case copWaitGE:
				op.arg = 1 + rng.Intn(6)
			case copInterrupt, copKill:
				op.arg = rng.Intn(nproc)
			}
			out = append(out, op)
		}
		return out
	}
	for range nproc {
		pr.procs = append(pr.procs, ops(1+rng.Intn(14), true))
	}
	for i := range pr.procs {
		for pc := range pr.procs[i] {
			if pr.procs[i][pc].kind == copSpawn {
				pr.procs[i][pc].arg = len(pr.children)
				pr.children = append(pr.children, ops(1+rng.Intn(6), false))
			}
		}
	}
	return pr
}

// chargeRecord is everything one run leaves behind.
type chargeRecord struct {
	err      string
	dispatch []string // every resume and finish: time, the engine's sequence number, the process
	flight   []string // the flight recorder's entries, parks included
	log      []string // what the processes observed, at their interactions
	metrics  string   // every engine counter
	end      Time
}

// runCharges runs pr with its charges deferred (Charge) or eager (Advance).
// A callback fires each gate at its fireAt, and callbacks raise the counter
// every 10 ns up to 80, so no program waits forever; a daemon takes the
// mailbox's items.
func runCharges(t *testing.T, pr chargeProgram, deferred bool) chargeRecord {
	t.Helper()
	e := NewEngine()
	defer e.Close()
	var rec chargeRecord
	e.SetTrace(func(s string) { rec.dispatch = append(rec.dispatch, fmt.Sprintf("%s seq %d", s, e.seq)) })
	fr := NewFlightRecorder(1 << 16)
	e.SetFlightRecorder(fr)
	reg := metrics.New()
	e.SetMetrics(reg)
	gates := make([]*Gate, len(pr.fireAt))
	for g, at := range pr.fireAt {
		gates[g] = NewGate(fmt.Sprintf("g%d", g))
		e.After(at, func() { gates[g].Fire(e) })
	}
	ctr := NewCounter("c", 0)
	for at := Duration(10); at <= 80; at += 10 {
		e.After(at, func() { ctr.Add(e, 1) })
	}
	mb := NewMailbox[string]("m")
	e.SpawnDaemon("rx", func(p *Proc) {
		for {
			item := take(p, mb)
			rec.log = append(rec.log, fmt.Sprintf("rx %s at %d", item, p.Now()))
		}
	})
	note := func(p *Proc, format string, args ...any) {
		rec.log = append(rec.log, fmt.Sprintf("%s at %d: ", p.Name(), p.Now())+fmt.Sprintf(format, args...))
	}
	top := make([]*Proc, len(pr.procs))
	var body func(ops []cop) func(p *Proc)
	body = func(ops []cop) func(p *Proc) {
		return func(p *Proc) {
			charged := 0 // own state, touched between a charge and its settling
			for pc, op := range ops {
				err := Protect(func() {
					switch op.kind {
					case copCharge:
						if deferred {
							p.Charge(op.d)
						} else {
							p.Advance(op.d)
						}
						charged++
					case copAdvance:
						p.Advance(op.d)
					case copNow:
						note(p, "charged %d", charged)
					case copWait:
						gates[op.arg].Wait(p)
					case copFire:
						gates[op.arg].Fire(e)
					case copAdd:
						ctr.Add(e, 1)
					case copWaitGE:
						ctr.WaitGE(p, uint64(op.arg))
					case copPut:
						mb.Put(e, fmt.Sprintf("%s/%d", p.Name(), pc))
					case copSpawn:
						e.Spawn(fmt.Sprintf("%s/%d", p.Name(), pc), body(pr.children[op.arg]))
					case copInterrupt:
						top[op.arg].interrupt(fmt.Errorf("interrupted by %s/%d", p.Name(), pc))
					case copKill:
						top[op.arg].Kill()
					}
				})
				if err != nil {
					note(p, "op %d: %v", pc, err)
				}
			}
			note(p, "done, charged %d", charged)
		}
	}
	for i, ops := range pr.procs {
		top[i] = e.Spawn(fmt.Sprintf("p%d", i), body(ops))
	}
	if err := e.Run(); err != nil {
		rec.err = err.Error()
	}
	for _, en := range fr.snapshot() {
		rec.flight = append(rec.flight, fmt.Sprintf("%d %s %s %s %d", en.at, en.kind, en.proc, en.note, en.dur))
	}
	var js strings.Builder
	if err := reg.Snapshot().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	rec.metrics, rec.end = js.String(), e.Now()
	return rec
}

// checkChargeEqualsAdvance runs pr both ways and reports the first record
// that differs.
func checkChargeEqualsAdvance(t *testing.T, pr chargeProgram, label string) {
	t.Helper()
	want, got := runCharges(t, pr, false), runCharges(t, pr, true)
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"error", got.err, want.err},
		{"dispatch trace", got.dispatch, want.dispatch},
		{"flight entries", got.flight, want.flight},
		{"observations", got.log, want.log},
		{"counters", got.metrics, want.metrics},
		{"end", got.end, want.end},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s, %s:\n got  %v\n want %v", label, f.name, f.got, f.want)
		}
	}
}

// TestChargeEqualsAdvance is the seeded differential: random programs over
// several processes mixing runs of charges with advances, clock reads, gate,
// counter and mailbox operations, spawns, interrupts and kills must leave the
// same (time, sequence, process) dispatch trace, flight entries, observations
// and counters whether each charge is deferred (Charge) or paid at once
// (Advance).
func TestChargeEqualsAdvance(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		checkChargeEqualsAdvance(t, newChargeProgram(rand.New(rand.NewSource(seed))), fmt.Sprintf("seed %d", seed))
	}
}

// FuzzCharge is TestChargeEqualsAdvance over fuzzed seeds.
func FuzzCharge(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed * 0x5851F42D4C957F2D)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkChargeEqualsAdvance(t, newChargeProgram(rand.New(rand.NewSource(seed))), fmt.Sprintf("seed %d", seed))
	})
}

// TestChargeSettlesAtEveryInteraction: a run of charges is paid before each
// kind of interaction with shared state, which so sees the clock the charges
// moved.
func TestChargeSettlesAtEveryInteraction(t *testing.T) {
	// shared is what an interaction touches.
	type shared struct {
		e *Engine
		g *Gate
		c *Counter
		m *Mailbox[int]
	}
	for name, interact := range map[string]func(s shared, p *Proc){
		"Engine.Now":     func(s shared, _ *Proc) { s.e.Now() },
		"SkipFreeNow":    func(s shared, _ *Proc) { s.e.SkipFreeNow() },
		"After":          func(s shared, _ *Proc) { s.e.After(0, func() {}) },
		"Spawn":          func(s shared, _ *Proc) { s.e.Spawn("child", func(*Proc) {}) },
		"Advance":        func(_ shared, p *Proc) { p.Advance(1) },
		"AdvanceFn":      func(_ shared, p *Proc) { p.AdvanceFn(0, func() Duration { return StepResume }) },
		"Gate.Wait":      func(s shared, p *Proc) { s.g.Wait(p) },
		"Gate.Fire":      func(s shared, _ *Proc) { s.g.Fire(s.e) },
		"Counter.Set":    func(s shared, _ *Proc) { s.c.Set(s.e, 1) },
		"Counter.Add":    func(s shared, _ *Proc) { s.c.Add(s.e, 1) },
		"Counter.WaitGE": func(s shared, p *Proc) { s.c.WaitGE(p, 0) },
		"Mailbox.Put":    func(s shared, _ *Proc) { s.m.Put(s.e, 1) },
		"ClearInterrupt": func(_ shared, p *Proc) { p.ClearInterrupt() },
		"Kill":           func(s shared, _ *Proc) { s.e.Spawn("victim", func(*Proc) {}).Kill() },
		"finish":         nil, // the process's end
	} {
		s := shared{NewEngine(), NewGate("open"), NewCounter("c", 0), NewMailbox[int]("m")}
		s.g.Fire(s.e)
		var at Time
		s.e.Spawn("p", func(p *Proc) {
			p.Charge(3)
			p.Charge(4)
			if interact != nil {
				interact(s, p)
				at = s.e.now
			}
		})
		mustRun(t, s.e)
		if interact == nil {
			at = s.e.now
		}
		if want := Time(7); at < want {
			t.Errorf("%s: ran at %d, before its charges were paid (%d)", name, at, want)
		}
		if s.e.debtor != nil {
			t.Errorf("%s: the engine still names a debtor after the run", name)
		}
		s.e.Close()
	}
}

// TestChargeTailInState: AppendState encodes the charges a settling chain
// still has to wait out, so two heads that differ only in them do not digest
// equal, while the same chain read twice does.
func TestChargeTailInState(t *testing.T) {
	digest := func(charges ...Duration) string {
		e := NewEngine()
		defer e.Close()
		var state []byte
		e.After(5, func() {
			b, ok := e.AppendState(nil)
			if !ok {
				t.Fatal("AppendState refused a plain engine")
			}
			state = b
		})
		e.Spawn("p", func(p *Proc) {
			for _, d := range charges {
				p.Charge(d)
			}
			p.Now()
		})
		mustRun(t, e)
		return string(state)
	}
	if digest(10, 20, 30) != digest(10, 20, 30) {
		t.Error("one chain digests differently on two runs")
	}
	if digest(10, 20, 30) == digest(10, 20, 40) {
		t.Error("chains differing only in a remaining charge digest equal")
	}
	if digest(10, 20, 30) == digest(10, 20) {
		t.Error("chains differing only in their remaining length digest equal")
	}
}

// TestChargeInsideStepPanics: a script step runs in engine context, where a
// deferred charge would have no coroutine to settle on.
func TestChargeInsideStepPanics(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("p", func(p *Proc) {
		p.AdvanceFn(1, func() Duration {
			p.Charge(1)
			return StepResume
		})
	})
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "Charge inside a script step") {
		t.Fatalf("Run = %v, want the misuse reported", err)
	}
}

// TestChargeChainAllocationGuard pins a steady-state chain at zero
// allocations: the charge list and the bound step are the process's, reused
// by every chain.
func TestChargeChainAllocationGuard(t *testing.T) {
	const chains = 1000
	avg := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		e.Spawn("charges", func(p *Proc) {
			for range chains {
				p.Charge(Nanosecond)
				p.Charge(2 * Nanosecond)
				p.Charge(Nanosecond)
				p.Now()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Close()
	})
	if perChain := avg / chains; perChain > 0.05 {
		t.Errorf("a charge chain allocates: %.3f allocs/chain (%.0f per %d-chain run, want ~0)", perChain, avg, chains)
	}
}
