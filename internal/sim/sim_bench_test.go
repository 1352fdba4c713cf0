package sim

import "testing"

// Benchmarks for the engine hot path: steady-state Advance (one event
// schedule + two context handoffs per call), engine-context callbacks, and
// a two-process gate ping-pong. Paired with TestAdvanceAllocationGuard,
// which pins the per-Advance allocation count at zero.

func BenchmarkProcAdvance(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("adv", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(Nanosecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	e.Close()
}

func BenchmarkAfterCallback(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var n int
	var tick func()
	tick = func() {
		if n++; n < b.N {
			e.After(Nanosecond, tick)
		}
	}
	e.After(Nanosecond, tick)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	e.Close()
}

// BenchmarkEngineManyProcs models the scheduler profile of a many-rank cell:
// 64 processes advancing in lock-step, so every event dispatch hands control
// to a different goroutine (no self-resume fast path applies).
func BenchmarkEngineManyProcs(b *testing.B) {
	b.ReportAllocs()
	const procs = 64
	e := NewEngine()
	iters := b.N/procs + 1
	for k := 0; k < procs; k++ {
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < iters; i++ {
				p.Advance(Nanosecond)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	e.Close()
}

// BenchmarkEngineSchedule stresses the priority queue: a deep backlog of
// pending timers (1024 outstanding callbacks at all times), so every push
// and pop walks the heap rather than the same-time fast path. No two
// timers share an instant, so no run forms: it measures the heap alone.
func BenchmarkEngineSchedule(b *testing.B) {
	b.ReportAllocs()
	const depth = 1024
	e := NewEngine()
	var n int
	var tick func()
	tick = func() {
		if n++; n < b.N {
			// Re-arm far in the future so the queue stays deep.
			e.After(depth*Nanosecond, tick)
		}
	}
	for i := 0; i < depth && i < b.N; i++ {
		e.After(Duration(i+1)*Nanosecond, tick)
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	e.Close()
}

// BenchmarkTimelineReserve pins the cost of booking one transfer on a port
// timeline (the fabric's innermost operation).
func BenchmarkTimelineReserve(b *testing.B) {
	b.ReportAllocs()
	tl := NewTimeline("port")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReserveMulti(Time(i), Nanosecond, tl)
	}
}

func BenchmarkGatePingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	ping := make([]*Gate, b.N+1)
	pong := make([]*Gate, b.N+1)
	for i := range ping {
		ping[i] = NewGate("ping")
		pong[i] = NewGate("pong")
	}
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping[i].Fire(e)
			pong[i].Wait(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping[i].Wait(p)
			pong[i].Fire(e)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	e.Close()
}

// BenchmarkChargeChain models UNICONN's host overheads on a many-rank cell:
// 64 processes each pay three host charges before every interaction (a clock
// read), so each charge is a park. Charged, a run of them settles as one
// coroutine switch; advanced, each charge switches. ns/op is per charge.
func BenchmarkChargeChain(b *testing.B) {
	for _, form := range []string{"charge", "advance"} {
		b.Run(form, func(b *testing.B) {
			b.ReportAllocs()
			const procs, run = 64, 3
			e := NewEngine()
			chains := b.N/(procs*run) + 1
			for k := 0; k < procs; k++ {
				e.Spawn("p", func(p *Proc) {
					for i := 0; i < chains; i++ {
						for range run {
							if form == "charge" {
								p.Charge(Nanosecond)
							} else {
								p.Advance(Nanosecond)
							}
						}
						p.Now()
					}
				})
			}
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			e.Close()
		})
	}
}
