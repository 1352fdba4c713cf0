package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// A scripted process (AdvanceFn) must be indistinguishable, in everything the
// engine records, from the same logic written with Advance and Wait. The
// tests below run one program both ways and compare the records.

type sopKind uint8

const (
	sopAdvance sopKind = iota // Advance(d)
	sopWait                   // Wait on gate g
	sopFire                   // Fire gate g from the process
	sopAfter                  // After(d): fire gate g from an engine callback
)

type sop struct {
	kind sopKind
	d    Duration
	g    int
}

// record is everything one run leaves behind.
type record struct {
	err    string
	trace  []string
	flight []string // without park lines
	parks  []string // the park lines alone
	log    []string // what the processes themselves observed
	events int64
	end    Time
}

// runProgram runs progs (one op list per process) with the processes whose
// scripted[i] is set written as scripts and the rest as coroutines. Every
// gate is also fired by a callback at fireAt[g], so no program deadlocks.
func runProgram(t *testing.T, progs [][]sop, fireAt []Duration, scripted []bool) record {
	t.Helper()
	e := NewEngine()
	defer e.Close()
	var rec record
	e.SetTrace(func(s string) { rec.trace = append(rec.trace, s) })
	fr := NewFlightRecorder(1 << 16)
	e.SetFlightRecorder(fr)
	reg := metrics.New()
	e.SetMetrics(reg)
	gates := make([]*Gate, len(fireAt))
	for g, at := range fireAt {
		gates[g] = NewGate(fmt.Sprintf("g%d", g))
		e.After(at, func() { gates[g].Fire(e) })
	}
	do := func(p *Proc, op sop) {
		switch op.kind {
		case sopFire:
			gates[op.g].Fire(e)
		case sopAfter:
			e.After(op.d, func() { gates[op.g].Fire(e) })
		}
	}
	for i, ops := range progs {
		name := fmt.Sprintf("p%d", i)
		note := func(pc int) { rec.log = append(rec.log, fmt.Sprintf("%s op %d done at %d", name, pc, e.Now())) }
		if !scripted[i] {
			e.Spawn(name, func(p *Proc) {
				for pc, op := range ops {
					switch op.kind {
					case sopAdvance:
						p.Advance(op.d)
					case sopWait:
						gates[op.g].Wait(p)
					default:
						do(p, op)
					}
					note(pc)
				}
			})
			continue
		}
		e.Spawn(name, func(p *Proc) {
			pc := 0
			step := func() Duration {
				for pc < len(ops) {
					switch op := ops[pc]; op.kind {
					case sopAdvance:
						// The wake of an advance re-enters here with the op
						// marked done (d zeroed), like Advance returning.
						if op.d > 0 {
							ops[pc].d = 0
							return op.d
						}
					case sopWait:
						if !gates[op.g].Enlist(p) {
							return StepEnlisted
						}
					default:
						do(p, op)
					}
					note(pc)
					pc++
				}
				return StepResume
			}
			p.AdvanceFn(0, step)
		})
	}
	if err := e.Run(); err != nil {
		rec.err = err.Error()
	}
	for _, en := range fr.snapshot() {
		line := fmt.Sprintf("%d %s %s %s %d", en.at, en.kind, en.proc, en.note, en.dur)
		if en.kind == flightPark {
			rec.parks = append(rec.parks, line)
		} else {
			rec.flight = append(rec.flight, line)
		}
	}
	rec.events, rec.end = reg.Counter("sim.events").Value(), e.Now()
	if cancelled := rec.events - reg.Counter("sim.callbacks").Value() - reg.Counter("sim.spawns").Value() -
		reg.Counter("sim.steps").Value() - parkTotal(reg); cancelled != 0 {
		t.Errorf("sim.events = %d does not balance callbacks + resumes + steps: %d left over", rec.events, cancelled)
	}
	return rec
}

func parkTotal(reg *metrics.Registry) int64 {
	n := reg.Counter("sim.parks.other").Value()
	for _, class := range parkClasses {
		n += reg.Counter("sim.parks." + class).Value()
	}
	return n
}

// copyProgs deep-copies a program: the script form consumes its op list.
func copyProgs(progs [][]sop) [][]sop {
	out := make([][]sop, len(progs))
	for i, ops := range progs {
		out[i] = append([]sop(nil), ops...)
	}
	return out
}

// TestScriptEqualsCoroutine is the seeded differential: random programs of
// advance chains (with zero advances and same-instant ties), gate waits with
// one and several waiters, and fires from processes and from callbacks, run
// as coroutines, as scripts and as a mix, must leave the same trace, the same
// flight entries, the same observations and the same event count. The park
// lines alone may differ in kind — and do not: a step records the park its
// coroutine form would have.
func TestScriptEqualsCoroutine(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nproc, ngate := 1+rng.Intn(6), 1+rng.Intn(4)
		fireAt := make([]Duration, ngate)
		for g := range fireAt {
			fireAt[g] = Duration(rng.Intn(40)) * 5 // many ties with the advances below
		}
		progs := make([][]sop, nproc)
		for i := range progs {
			for n := 1 + rng.Intn(12); n > 0; n-- {
				op := sop{kind: sopKind(rng.Intn(4)), d: Duration(rng.Intn(4)) * 5, g: rng.Intn(ngate)}
				progs[i] = append(progs[i], op)
			}
		}
		all, none, mix := make([]bool, nproc), make([]bool, nproc), make([]bool, nproc)
		for i := range all {
			all[i], mix[i] = true, rng.Intn(2) == 0
		}
		want := runProgram(t, copyProgs(progs), fireAt, none)
		if want.err != "" {
			t.Fatalf("seed %d: coroutine form failed: %s", seed, want.err)
		}
		for name, scripted := range map[string][]bool{"scripts": all, "mix": mix} {
			got := runProgram(t, copyProgs(progs), fireAt, scripted)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: the records differ\n got  %+v\n want %+v", seed, name, got, want)
			}
		}
	}
}

// victimLog runs the impersonation scenario: a victim advances 10 twice, waits
// on a gate a callback fires at 100, and advances 5, all under Protect, while
// fault is applied to it at time at. It returns what the victim and the engine
// recorded.
func victimLog(t *testing.T, scripted bool, at Duration, fault func(p *Proc)) record {
	t.Helper()
	e := NewEngine()
	defer e.Close()
	var rec record
	e.SetTrace(func(s string) { rec.trace = append(rec.trace, s) })
	g := NewGate("recv")
	e.After(100, func() { g.Fire(e) })
	var victim *Proc
	victim = e.Spawn("victim", func(p *Proc) {
		defer func() { rec.log = append(rec.log, fmt.Sprintf("unwound at %d", e.Now())) }()
		stage := 0
		err := Protect(func() {
			if !scripted {
				p.Advance(10)
				stage++
				p.Advance(10)
				stage++
				g.Wait(p)
				stage++
				p.Advance(5)
				stage++
				return
			}
			p.AdvanceFn(10, func() Duration {
				switch stage {
				case 0:
					stage++
					return 10
				case 1:
					stage++
					if !g.Enlist(p) {
						return StepEnlisted
					}
					fallthrough
				case 2:
					// Woken by the gate: the second half of Wait (raise what
					// arrived meanwhile) is the engine's, not this step's.
					stage++
					return 5
				default:
					stage++
					return StepResume
				}
			})
		})
		rec.log = append(rec.log, fmt.Sprintf("stage %d err %v at %d", stage, err, e.Now()))
		p.Advance(7) // a survivor goes on
		rec.log = append(rec.log, fmt.Sprintf("done at %d", e.Now()))
	})
	e.After(at, func() { fault(victim) })
	if err := e.Run(); err != nil {
		rec.err = err.Error()
	}
	rec.end = e.Now()
	return rec
}

// TestScriptImpersonatesOwner is the table of scheduling points at which a
// script must behave as its owner would: Kill and interrupt arriving before
// the first step, between steps and while enlisted unwind or raise in the
// same slot, at the same stage, as in the coroutine form.
func TestScriptImpersonatesOwner(t *testing.T) {
	errPoison := errors.New("poison")
	faults := map[string]func(p *Proc){
		"kill":      func(p *Proc) { p.Kill() },
		"interrupt": func(p *Proc) { p.interrupt(errPoison) },
	}
	for name, fault := range faults {
		for _, at := range []Duration{5, 10, 15, 20, 50, 100, 102} {
			want := victimLog(t, false, at, fault)
			got := victimLog(t, true, at, fault)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %d: script\n %+v\ncoroutine\n %+v", name, at, got, want)
			}
			if name == "kill" && at < 100 && (len(want.log) != 1 || !strings.HasPrefix(want.log[0], "unwound")) {
				t.Errorf("kill at %d: the victim survived: %v", at, want.log)
			}
			if name == "interrupt" && at <= 100 && !strings.Contains(strings.Join(want.log, ";"), "err poison") {
				t.Errorf("interrupt at %d was not delivered: %v", at, want.log)
			}
		}
	}
}

var errCut = errors.New("partition")

// TestScriptAbortUnwindsOwner: a sim.Abort raised inside a step (a fabric
// partition under a message injection) unwinds the owner from its AdvanceFn
// call and is caught by the owner's Protect, not turned into a PanicError.
func TestScriptAbortUnwindsOwner(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var got error
	var after Time
	e.Spawn("owner", func(p *Proc) {
		got = Protect(func() {
			p.AdvanceFn(10, func() Duration {
				Abort(errCut)
				return StepResume
			})
			t.Error("AdvanceFn returned after its step aborted")
		})
		p.Advance(3)
		after = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != errCut || after != 13 {
		t.Fatalf("Protect returned %v and the owner went on to %v, want %v and 13", got, after, errCut)
	}
	// Without a Protect the abort ends the run as the owner's failure.
	e2 := NewEngine()
	defer e2.Close()
	e2.Spawn("owner", func(p *Proc) { p.AdvanceFn(10, func() Duration { Abort(errCut); return 0 }) })
	if err := e2.Run(); !errors.Is(err, errCut) || !strings.Contains(err.Error(), `"owner"`) {
		t.Fatalf("unprotected abort in a step: %v", err)
	}
}

// TestScriptPanicNamesOwner: any other panic in a step is a PanicError that
// names the owner, whichever stack the step happened to run on, and the
// owner's deferred functions run.
func TestScriptPanicNamesOwner(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	deferred := false
	e.Spawn("bystander", func(p *Proc) { p.Advance(100) }) // its park dispatches the step
	e.Spawn("owner", func(p *Proc) {
		defer func() { deferred = true }()
		p.AdvanceFn(10, func() Duration { panic("truncated") })
	})
	var pe *PanicError
	if err := e.Run(); !errors.As(err, &pe) || pe.proc != "owner" || pe.value != "truncated" {
		t.Fatalf("Run = %v, want a PanicError of owner with value truncated", err)
	}
	if !deferred {
		t.Fatal("the owner's deferred function did not run")
	}
}

// TestScriptDiagnostics: deadlock and watchdog listings name a scripted
// process with the reason its coroutine form would show, and Close unwinds
// one parked in a script.
func TestScriptDiagnostics(t *testing.T) {
	enlist := func(p *Proc) {
		g := &Gate{}
		g.SetLabel("gate recv")
		p.AdvanceFn(10, func() Duration {
			if !g.Enlist(p) {
				return StepEnlisted
			}
			return StepResume
		})
	}
	e := NewEngine()
	e.Spawn("rank1", enlist)
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) || !reflect.DeepEqual(de.waiting, []string{"rank1: gate recv"}) {
		t.Fatalf("Run = %v, want a deadlock with rank1 waiting on gate recv", err)
	}
	e.Close()

	e = NewEngine()
	e.SetWatchdog(25)
	e.Spawn("rank2", func(p *Proc) { p.AdvanceFn(10, func() Duration { return 10 }) })
	var te *TimeoutError
	if err := e.Run(); !errors.As(err, &te) || !reflect.DeepEqual(te.Waiting, []string{"rank2: advance 10ns"}) {
		t.Fatalf("Run = %v, want a watchdog timeout with rank2 in advance 10ns", err)
	}
	e.Close()

	e = NewEngine()
	unwound := false
	e.SpawnDaemon("daemon", func(p *Proc) {
		defer func() { unwound = true }()
		enlist(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run with a scripted daemon parked: %v", err)
	}
	if unwound {
		t.Fatal("the daemon unwound before Close")
	}
	e.Close()
	if !unwound {
		t.Fatal("Close did not unwind the process parked in a script")
	}
}

// TestScriptAllocationGuard extends TestAdvanceAllocationGuard to scripts: a
// step that re-arms its timer or enlists on a gate allocates nothing.
func TestScriptAllocationGuard(t *testing.T) {
	const iters = 2000
	avg := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		var g Gate
		i := 0
		fire := func() { g.Fire(e) }
		e.Spawn("script", func(p *Proc) {
			p.AdvanceFn(Nanosecond, func() Duration {
				switch {
				case i == 2*iters:
					return StepResume
				case i%2 == 0: // wait for a callback's fire ...
					i++
					g = Gate{}
					e.After(Nanosecond, fire)
					if g.Enlist(p) {
						t.Error("an unfired gate reported fired")
					}
					return StepEnlisted
				default: // ... then advance
					i++
					return Nanosecond
				}
			})
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Close()
	})
	if perStep := avg / (2 * iters); perStep > 0.05 {
		t.Errorf("a script step allocates: %.3f allocs/step (%.0f per %d-step run, want ~0)", perStep, avg, 2*iters)
	}
}

// enlistLog runs n processes that each advance, pass a rendezvous of all n,
// wait until a counter reaches their rank and advance again — as coroutines
// (Arrive, WaitGE) or as scripts (Rendezvous.Enlist, Counter.Enlist) — while
// callbacks raise the counter and, if interrupt is set, revoke process 1 at
// 12. It returns what the processes and the engine recorded.
func enlistLog(t *testing.T, scripted, interrupt bool) record {
	t.Helper()
	const n = 4
	e := NewEngine()
	defer e.Close()
	var rec record
	e.SetTrace(func(s string) { rec.trace = append(rec.trace, s) })
	reg := metrics.New()
	e.SetMetrics(reg)
	r, c := NewRendezvous("r", n), NewCounter("c", 0)
	for at := Duration(15); at <= 30; at += 5 {
		e.After(at, func() { c.Add(e, 1) })
	}
	procs := make([]*Proc, n)
	for i := range procs {
		name := fmt.Sprintf("p%d", i)
		note := func(what string) { rec.log = append(rec.log, fmt.Sprintf("%s %s at %d", name, what, e.Now())) }
		procs[i] = e.Spawn(name, func(p *Proc) {
			err := Protect(func() {
				if !scripted {
					p.Advance(Duration(3 * i))
					r.Arrive(p)
					note("passed")
					c.WaitGE(p, uint64(i))
					note("counted")
					p.Advance(2)
					return
				}
				stage := 0
				geI := func(v uint64) bool { return v >= uint64(i) }
				p.AdvanceFn(Duration(3*i), func() Duration {
					switch stage {
					case 0:
						stage++
						if !r.Enlist(p) {
							return StepEnlisted
						}
						fallthrough
					case 1:
						note("passed")
						stage++
						if !c.Enlist(p, geI) {
							return StepEnlisted
						}
						fallthrough
					case 2:
						note("counted")
						stage++
						return 2
					default:
						return StepResume
					}
				})
			})
			note(fmt.Sprintf("done err %v", err))
		})
	}
	if interrupt {
		e.After(12, func() { procs[1].interrupt(errRevoked) })
	}
	if err := e.Run(); err != nil {
		rec.err = err.Error()
	}
	rec.events, rec.end = reg.Counter("sim.events").Value(), e.Now()
	return rec
}

var errRevoked = errors.New("revoked")

// TestEnlistFormsEqualWaits: Rendezvous.Enlist and Counter.Enlist stand in for
// Arrive and WaitGE slot for slot — same observations, trace and event count
// — including an interrupt that cancels a counter wait, after which the
// rendezvous still released everyone.
func TestEnlistFormsEqualWaits(t *testing.T) {
	for _, interrupt := range []bool{false, true} {
		want, got := enlistLog(t, false, interrupt), enlistLog(t, true, interrupt)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("interrupt %v: script\n %+v\ncoroutine\n %+v", interrupt, got, want)
		}
		if interrupt != strings.Contains(strings.Join(want.log, ";"), "p1 done err revoked") {
			t.Errorf("interrupt %v: log %v", interrupt, want.log)
		}
	}
}

// TestScriptsDoNotNest: a step that calls AdvanceFn is a bug, reported as a
// panic naming the owner.
func TestScriptsDoNotNest(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("owner", func(p *Proc) {
		p.AdvanceFn(5, func() Duration {
			p.AdvanceFn(5, func() Duration { return StepResume })
			return StepResume
		})
	})
	var pe *PanicError
	if err := e.Run(); !errors.As(err, &pe) || !strings.Contains(fmt.Sprint(pe.value), "owner: AdvanceFn inside a script step") {
		t.Fatalf("Run = %v, want a panic naming the nested AdvanceFn", err)
	}
}
