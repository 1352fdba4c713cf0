package sim

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
)

func mustRun(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Close()
}

// take is a blocking mailbox receive written as the one-step script a
// receiver runs (Mailbox.Enlist): it parks only while the mailbox is empty.
func take[T any](p *Proc, m *Mailbox[T]) (item T) {
	p.AdvanceFn(0, func() Duration {
		var ok bool
		if item, ok = m.Enlist(p); !ok {
			return StepEnlisted
		}
		return StepResume
	})
	return item
}

func TestAdvanceAccumulates(t *testing.T) {
	e := NewEngine()
	var end Time
	e.Spawn("p", func(p *Proc) {
		p.Advance(3 * Microsecond)
		p.Advance(0)  // no-op
		p.Advance(-5) // clamped
		p.Advance(7 * Nanosecond)
		end = p.Now()
	})
	mustRun(t, e)
	if want := Time(3*Microsecond + 7); end != want {
		t.Fatalf("end time = %v, want %v", end, want)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Advance(Duration(10 + i)) // distinct periods
					log = append(log, fmt.Sprintf("p%d@%d", i, p.Now()))
				}
			})
		}
		mustRun(t, e)
		return log
	}
	first := run()
	for trial := 0; trial < 10; trial++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("trial %d: length %d != %d", trial, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d: event %d = %s, want %s", trial, i, got[i], first[i])
			}
		}
	}
}

func TestTieBreakBySpawnOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Advance(5)
			order = append(order, i)
		})
	}
	mustRun(t, e)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestGate(t *testing.T) {
	e := NewEngine()
	g := NewGate("g")
	var wakeTimes []Time
	for i := 0; i < 3; i++ {
		e.Spawn("waiter", func(p *Proc) {
			g.Wait(p)
			wakeTimes = append(wakeTimes, p.Now())
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Advance(100)
		g.Fire(e)
	})
	e.Spawn("late", func(p *Proc) {
		p.Advance(200)
		g.Wait(p) // already fired: immediate
		wakeTimes = append(wakeTimes, p.Now())
	})
	mustRun(t, e)
	if len(wakeTimes) != 4 {
		t.Fatalf("wakeTimes = %v", wakeTimes)
	}
	for _, w := range wakeTimes[:3] {
		if w != 100 {
			t.Fatalf("waiter woke at %v, want 100", w)
		}
	}
	if wakeTimes[3] != 200 {
		t.Fatalf("late waiter woke at %v, want 200", wakeTimes[3])
	}
	if !g.Fired() {
		t.Fatal("gate not fired")
	}
}

func TestCounterWaiters(t *testing.T) {
	e := NewEngine()
	c := NewCounter("sig", 0)
	var got []uint64
	e.Spawn("w1", func(p *Proc) {
		c.WaitGE(p, 3)
		got = append(got, c.Value())
	})
	e.Spawn("w2", func(p *Proc) {
		c.WaitUntil(p, func(x uint64) bool { return x == 2 })
		got = append(got, c.Value())
	})
	e.Spawn("setter", func(p *Proc) {
		p.Advance(10)
		c.Add(e, 2) // releases w2
		p.Advance(10)
		c.Add(e, 2) // value 4, releases w1
	})
	mustRun(t, e)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("got %v, want [2 4]", got)
	}
}

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine()
	m := NewMailbox[int]("m")
	var got []int
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, take(p, m))
		}
	})
	e.Spawn("send", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Advance(7)
			m.Put(e, i)
		}
	})
	mustRun(t, e)
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want [0..4]", got)
		}
	}
}

// TestMailboxOrderUnderBacklog drives 10 000 items through a mailbox whose
// producer runs in bursts ahead of a slower consumer, so the queue drains,
// refills and (never empty for long stretches) compacts: every item must come
// out once, in insertion order, and Len must track the backlog.
func TestMailboxOrderUnderBacklog(t *testing.T) {
	const total = 10000
	e := NewEngine()
	m := NewMailbox[int]("backlog")
	next := 0
	e.Spawn("recv", func(p *Proc) {
		for next < total {
			if v := take(p, m); v != next {
				t.Fatalf("item %d came out at position %d", v, next)
			}
			next++
			p.Advance(3)
		}
		if n := len(m.items) - m.head; n != 0 {
			t.Errorf("%d queued after the last item", n)
		}
	})
	e.Spawn("send", func(p *Proc) {
		for i := 0; i < total; {
			for burst := 0; burst < 1+i%97 && i < total; burst++ {
				m.Put(e, i)
				i++
			}
			if got, want := len(m.items)-m.head, i-next; got != want {
				t.Fatalf("%d queued with %d put and %d taken", got, i, next)
			}
			p.Advance(100)
		}
	})
	mustRun(t, e)
	if next != total {
		t.Fatalf("received %d of %d items", next, total)
	}
}

func TestRendezvousRounds(t *testing.T) {
	e := NewEngine()
	r := NewRendezvous("b", 3)
	releases := make([]Time, 0, 6)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			for round := 0; round < 2; round++ {
				p.Advance(Duration(10 * (i + 1) * (round + 1)))
				r.Arrive(p)
				releases = append(releases, p.Now())
			}
		})
	}
	mustRun(t, e)
	if len(releases) != 6 {
		t.Fatalf("releases = %v", releases)
	}
	// First round releases at the slowest arrival (30), second at 30+60=90.
	for _, ts := range releases[:3] {
		if ts != 30 {
			t.Fatalf("round 1 release at %v, want 30", ts)
		}
	}
	for _, ts := range releases[3:] {
		if ts != 90 {
			t.Fatalf("round 2 release at %v, want 90", ts)
		}
	}
}

func TestTimelineReserve(t *testing.T) {
	tl := NewTimeline("link")
	s, e := ReserveMulti(100, 50, tl)
	if s != 100 || e != 150 {
		t.Fatalf("first reserve [%v,%v)", s, e)
	}
	// Overlapping request queues behind.
	s, e = ReserveMulti(120, 30, tl)
	if s != 150 || e != 180 {
		t.Fatalf("second reserve [%v,%v), want [150,180)", s, e)
	}
	// Later request after idle gap starts on time.
	s, e = ReserveMulti(500, 10, tl)
	if s != 500 || e != 510 {
		t.Fatalf("third reserve [%v,%v), want [500,510)", s, e)
	}
	if tl.BusySum() != 90 {
		t.Fatalf("busy sum = %v, want 90", tl.BusySum())
	}
}

func TestReserveMulti(t *testing.T) {
	a, b := NewTimeline("a"), NewTimeline("b")
	ReserveMulti(0, 100, a)
	s, e := ReserveMulti(50, 20, a, b)
	if s != 100 || e != 120 {
		t.Fatalf("multi reserve [%v,%v), want [100,120)", s, e)
	}
	if a.BusyUntil() != 120 || b.BusyUntil() != 120 {
		t.Fatalf("busyUntil a=%v b=%v", a.BusyUntil(), b.BusyUntil())
	}
}

func TestTimelineMonotonicProperty(t *testing.T) {
	// Property: regardless of request pattern, granted intervals never
	// overlap and starts are monotonically non-decreasing.
	f := func(reqs []struct {
		At  uint16
		Dur uint16
	}) bool {
		tl := NewTimeline("p")
		prevEnd := Time(0)
		for _, r := range reqs {
			s, e := ReserveMulti(Time(r.At), Duration(r.Dur), tl)
			if s < prevEnd || e < s {
				return false
			}
			prevEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	g := NewGate("never")
	e.Spawn("stuck", func(p *Proc) { g.Wait(p) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.waiting) != 1 {
		t.Fatalf("waiting = %v", de.waiting)
	}
	e.Close()
}

func TestDaemonsDoNotDeadlock(t *testing.T) {
	e := NewEngine()
	m := NewMailbox[int]("ops")
	e.SpawnDaemon("stream", func(p *Proc) {
		for {
			take(p, m)
		}
	})
	e.Spawn("host", func(p *Proc) {
		m.Put(e, 1)
		p.Advance(10)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Close() // must terminate the daemon goroutine
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Proc) {
		p.Advance(5)
		panic("kablam")
	})
	err := e.Run()
	pe, ok := err.(*PanicError)
	if !ok || pe.proc != "boom" {
		t.Fatalf("err = %v, want PanicError from boom", err)
	}
	e.Close()
}

func TestAfterCallback(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Spawn("p", func(p *Proc) {
		e.After(42, func() { at = e.Now() })
		p.Advance(100)
	})
	mustRun(t, e)
	if at != 42 {
		t.Fatalf("callback at %v, want 42", at)
	}
}

func TestSpawnAtFuture(t *testing.T) {
	e := NewEngine()
	var started Time
	e.spawnAt(77, "late", func(p *Proc) { started = p.Now() }, false)
	mustRun(t, e)
	if started != 77 {
		t.Fatalf("started at %v, want 77", started)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.5us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
		// Negative durations format the magnitude with the usual units and
		// a leading sign instead of falling through to raw nanoseconds.
		{-500, "-500ns"},
		{-1500, "-1.5us"},
		{-2 * Millisecond, "-2ms"},
		{-2 * Second, "-2s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestMicrosNanosHelpers(t *testing.T) {
	if Micros(1.5) != 1500 {
		t.Fatalf("Micros(1.5) = %d", Micros(1.5))
	}
	if Nanos(2.6) != 3 {
		t.Fatalf("Nanos(2.6) = %d", Nanos(2.6))
	}
	if got := Time(2500).Sub(Time(500)); got != 2000 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Time(100).Add(50); got != 150 {
		t.Fatalf("Add = %v", got)
	}
}

func TestNanosRoundsNegatives(t *testing.T) {
	// The old Duration(ns + 0.5) truncation collapsed all of (-1, 0) to 0
	// and rounded -1.4 to 0; rounding must be symmetric about zero.
	cases := []struct {
		ns   float64
		want Duration
	}{
		{0, 0},
		{0.4, 0},
		{0.6, 1},
		{-0.4, 0},
		{-0.6, -1},
		{-1.4, -1},
		{-1.6, -2},
		{-2.5, -3}, // half away from zero
		{2.5, 3},
	}
	for _, c := range cases {
		if got := Nanos(c.ns); got != c.want {
			t.Errorf("Nanos(%g) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestWatchdogTimeout(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(100)
	e.Spawn("slow", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(30)
		}
	})
	e.Spawn("parked", func(p *Proc) { NewGate("never").Wait(p) })
	err := e.Run()
	te, ok := err.(*TimeoutError)
	if !ok {
		t.Fatalf("err = %v, want TimeoutError", err)
	}
	if te.Deadline != 100 || te.At <= te.Deadline {
		t.Fatalf("timeout deadline=%v at=%v", te.Deadline, te.At)
	}
	// Parked-proc diagnostics, like DeadlockError: the gate waiter and the
	// advancing proc (parked on its own pending wakeup) both appear.
	if len(te.Waiting) != 2 || te.Waiting[0] != "parked: gate never" || te.Waiting[1] != "slow: advance 30ns" {
		t.Fatalf("waiting = %v", te.Waiting)
	}
	e.Close()
}

func TestWatchdogDisabledAndUnderDeadline(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(1000)
	e.Spawn("p", func(p *Proc) { p.Advance(999) })
	mustRun(t, e) // finishes under the deadline
}

func TestTimelineStallShiftsAdmission(t *testing.T) {
	tl := NewTimeline("port")
	tl.AddStall(100, 200)
	// A reservation starting inside the window is pushed to its end.
	s, e := ReserveMulti(150, 10, tl)
	if s != 200 || e != 210 {
		t.Fatalf("stalled reserve [%v,%v), want [200,210)", s, e)
	}
	// A reservation before the window is admitted and may run through it.
	tl2 := NewTimeline("port2")
	tl2.AddStall(100, 200)
	s, e = ReserveMulti(50, 100, tl2)
	if s != 50 || e != 150 {
		t.Fatalf("pre-stall reserve [%v,%v), want [50,150)", s, e)
	}
	// Queued work whose grant lands in the window shifts too.
	s, e = ReserveMulti(60, 10, tl2)
	if s != 200 || e != 210 {
		t.Fatalf("queued-into-stall reserve [%v,%v), want [200,210)", s, e)
	}
}

func TestTimelineStallChainsAndStalledAt(t *testing.T) {
	tl := NewTimeline("port")
	// Overlapping/adjacent windows added out of order chain into one
	// blackout [100, 400).
	tl.AddStall(300, 400)
	tl.AddStall(100, 250)
	tl.AddStall(250, 310)
	if until, stalled := tl.StalledAt(150); !stalled || until != 400 {
		t.Fatalf("StalledAt(150) = %v,%v want 400,true", until, stalled)
	}
	if _, stalled := tl.StalledAt(400); stalled {
		t.Fatal("StalledAt(400) should be admissible (half-open window)")
	}
	if _, stalled := tl.StalledAt(99); stalled {
		t.Fatal("StalledAt(99) should be admissible")
	}
	s, _ := ReserveMulti(120, 5, tl)
	if s != 400 {
		t.Fatalf("reserve through chained stalls starts at %v, want 400", s)
	}
}

func TestReserveMultiRespectsAllStalls(t *testing.T) {
	a, b := NewTimeline("a"), NewTimeline("b")
	a.AddStall(100, 200)
	b.AddStall(200, 300) // admission at 200 on a lands inside b's window
	s, e := ReserveMulti(150, 10, a, b)
	if s != 300 || e != 310 {
		t.Fatalf("multi reserve [%v,%v), want [300,310)", s, e)
	}
}

func TestDeadlockWaitingExcludesDaemons(t *testing.T) {
	e := NewEngine()
	m := NewMailbox[int]("idle")
	e.SpawnDaemon("daemon", func(p *Proc) {
		for {
			take(p, m)
		}
	})
	g := NewGate("never")
	e.Spawn("stuck-a", func(p *Proc) { g.Wait(p) })
	e.Spawn("stuck-b", func(p *Proc) { g.Wait(p) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	want := []string{"stuck-a: gate never", "stuck-b: gate never"}
	if len(de.waiting) != len(want) {
		t.Fatalf("waiting = %v, want %v", de.waiting, want)
	}
	for i := range want {
		if de.waiting[i] != want[i] {
			t.Fatalf("waiting = %v, want %v", de.waiting, want)
		}
	}
	e.Close()
}

func TestEngineCallbackPanicBecomesError(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		e.After(10, func() { panic("callback boom") })
		p.Advance(100)
	})
	err := e.Run()
	pe, ok := err.(*PanicError)
	if !ok || pe.proc != "engine-callback" || pe.value != "callback boom" {
		t.Fatalf("err = %v, want engine-callback PanicError", err)
	}
	e.Close()
}

// TestCloseAfterFailedRunLeaksNoGoroutines covers every state Close can find
// a process in after a run that failed: never started, parked mid-Advance,
// parked on a primitive, a parked daemon, and already gone by its own panic.
// Close unwinds each coroutine synchronously and returns only once the last
// is gone, so the count is back at the baseline with no settling time.
func TestCloseAfterFailedRunLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		e := NewEngine()
		e.SpawnDaemon("daemon", func(p *Proc) {
			m := NewMailbox[int]("never")
			for {
				take(p, m)
			}
		})
		g := NewGate("never")
		for j := 0; j < 3; j++ {
			e.Spawn("stuck", func(p *Proc) { g.Wait(p) })
		}
		e.Spawn("advancing", func(p *Proc) { p.Advance(1000) })
		started := false
		e.spawnAt(500, "never-started", func(p *Proc) { started = true }, false)
		e.Spawn("boom", func(p *Proc) {
			p.Advance(10)
			panic("kablam")
		})
		if pe, ok := e.Run().(*PanicError); !ok || pe.proc != "boom" {
			t.Fatal("expected boom's PanicError")
		}
		e.Close()
		if started {
			t.Fatal("Close ran the body of a process that had never started")
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: before %d, after %d", before, n)
	}
}

// TestCloseRunsDeferredOnce pins the unwind: a process parked when Close
// stops it runs its deferred functions exactly once, on Close's goroutine,
// and Close is idempotent.
func TestCloseRunsDeferredOnce(t *testing.T) {
	e := NewEngine()
	g := NewGate("never")
	deferred := map[string]int{}
	for _, name := range []string{"a", "b"} {
		e.Spawn(name, func(p *Proc) {
			defer func() { deferred[p.Name()]++ }()
			g.Wait(p)
			t.Error("a killed process continued past its park")
		})
	}
	e.SpawnDaemon("d", func(p *Proc) {
		defer func() { deferred["d"]++ }()
		take(p, NewMailbox[int]("never"))
	})
	if _, ok := e.Run().(*DeadlockError); !ok {
		t.Fatal("expected deadlock")
	}
	if len(deferred) != 0 {
		t.Fatalf("deferred functions ran before Close: %v", deferred)
	}
	e.Close()
	e.Close()
	if len(deferred) != 3 || deferred["a"] != 1 || deferred["b"] != 1 || deferred["d"] != 1 {
		t.Fatalf("deferred runs = %v, want each of a, b, d exactly once", deferred)
	}
}

func wantPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	fn()
}

// TestClosedEngineRefusesSpawnAndRun: a process spawned after Close could
// never be started or stopped (it used to leak a goroutine forever), and a
// run would find every process gone; both are caller bugs and panic.
func TestClosedEngineRefusesSpawnAndRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	e.Spawn("p", func(p *Proc) { p.Advance(1) })
	mustRun(t, e)
	body := func(p *Proc) { t.Error("process on a closed engine ran") }
	wantPanic(t, "sim: Spawn on closed engine", func() { e.Spawn("late", body) })
	wantPanic(t, "sim: Spawn on closed engine", func() { e.SpawnDaemon("late", body) })
	wantPanic(t, "sim: Spawn on closed engine", func() { e.spawnAt(5, "late", body, false) })
	wantPanic(t, "sim: Run on closed engine", func() { e.Run() })
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: before %d, after %d", before, n)
	}
}

// TestSpawnFromProcAndCallback: a process may be created by whoever holds
// the ball — another process or an engine callback — and starts at its spawn
// event like any other, in sequence order.
func TestSpawnFromProcAndCallback(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(p *Proc) { log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now())) }
	e.Spawn("parent", func(p *Proc) {
		e.Spawn("child", func(c *Proc) {
			note(c)
			c.Advance(5)
			note(c)
		})
		e.After(3, func() { e.Spawn("from-callback", note) })
		note(p)
		p.Advance(4)
		note(p)
	})
	mustRun(t, e)
	want := "[parent@0ns child@0ns from-callback@3ns parent@4ns child@5ns]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestGoexitInProcEndsRunsCaller pins the documented consequence of running
// processes as coroutines of Run: runtime.Goexit in a process body (what
// t.FailNow does) unwinds the goroutine that called Run, and Close still
// reclaims the rest.
func TestGoexitInProcEndsRunsCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Spawn("other", func(p *Proc) { p.Advance(100) })
		e.Spawn("exits", func(p *Proc) {
			p.Advance(1)
			runtime.Goexit()
		})
		e.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned although a process called runtime.Goexit")
	}
	e.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: before %d, after %d", before, n)
	}
}

// TestSpawnAllocationGuard pins what one process costs to create, run and
// retire: the Proc, its body closure, its spawn event's share, and
// iter.Pull's coroutine bookkeeping (about ten small objects). The
// benchmark's rt.allocs_per_op moves with this number times the processes
// per cell, so it must not creep.
func TestSpawnAllocationGuard(t *testing.T) {
	const procs = 500
	avg := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		for i := 0; i < procs; i++ {
			e.Spawn("p", func(p *Proc) { p.Advance(Nanosecond) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Close()
	})
	if perProc := avg / procs; perProc > 15 {
		t.Errorf("spawning a process allocates %.1f objects (%.0f per %d-process run), want <= 15",
			perProc, avg, procs)
	}
}

// TestAdvanceAllocationGuard pins the steady-state allocation cost of
// Proc.Advance at zero: event structs are pooled, park reasons are static
// strings, and no tracing arguments are boxed when tracing is disabled.
// The per-run budget covers engine construction and goroutine spawn only;
// a regression that allocates per Advance (even one word) blows through it
// immediately at 2000 iterations.
func TestAdvanceAllocationGuard(t *testing.T) {
	const iters = 2000
	avg := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		e.Spawn("adv", func(p *Proc) {
			for i := 0; i < iters; i++ {
				p.Advance(Nanosecond)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Close()
	})
	if perAdvance := avg / iters; perAdvance > 0.05 {
		t.Errorf("Proc.Advance allocates: %.3f allocs/op (%.0f per %d-advance run, want ~0)",
			perAdvance, avg, iters)
	}
}

// TestEventPoolCapBoundsRetention pins the free-list cap: a spike of
// thousands of simultaneous pending events must not stay pinned as pooled
// memory after the spike drains — retention is bounded by freePoolCap.
func TestEventPoolCapBoundsRetention(t *testing.T) {
	const spike = 4 * freePoolCap
	e := NewEngine()
	defer e.Close()
	fired := 0
	for i := 0; i < spike; i++ {
		e.After(Duration(i+1)*Nanosecond, func() { fired++ })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != spike {
		t.Fatalf("fired %d of %d callbacks", fired, spike)
	}
	if len(e.free) > freePoolCap {
		t.Fatalf("event pool retained %d events after spike, cap is %d", len(e.free), freePoolCap)
	}
	// The pool must still recycle below the cap: a fresh schedule should
	// come from the free list, not a new allocation.
	before := len(e.free)
	if before == 0 {
		t.Fatal("pool empty after spike; recycling is broken")
	}
	e.After(Nanosecond, func() {})
	if len(e.free) != before-1 {
		t.Fatalf("schedule did not draw from the pool: %d -> %d", before, len(e.free))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTimelineReserveAllocationGuard pins the fabric's innermost booking
// operation at zero allocations (paired with the CI bench-engine gate).
func TestTimelineReserveAllocationGuard(t *testing.T) {
	tl := NewTimeline("port")
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		ReserveMulti(Time(i), Nanosecond, tl)
		i++
	})
	if avg > 0.01 {
		t.Fatalf("ReserveMulti allocates %.2f objects/op, want 0", avg)
	}
}
