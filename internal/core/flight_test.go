package core

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// crashPlan kills rank 1 early under a watchdog, the standard hard-fault
// scenario of recovery_test.go.
func crashPlan() *faults.Plan {
	return &faults.Plan{
		Crashes:  []faults.RankCrash{{Rank: 1, At: sim.Time(100 * sim.Microsecond)}},
		Lease:    sim.Duration(200 * sim.Microsecond),
		Watchdog: sim.Second,
	}
}

// allreduceLoop is a small collective workload that a rank crash will poison.
func allreduceLoop(env *Env) {
	comm := NewCommunicator(env)
	s := env.NewStream("s")
	coord := NewCoordinator(env, PureHost, s)
	buf := Alloc[float64](env, 64)
	for i := 0; i < 100; i++ {
		AllReduce(coord, gpu.ReduceSum, buf.Base(), buf.Base(), 64, comm)
		env.StreamSynchronize(s)
	}
}

// TestFlightDumpOnUncaughtFailure asserts a failed run writes the
// post-mortem — header, kill, and interrupt entries — to the flight sink.
func TestFlightDumpOnUncaughtFailure(t *testing.T) {
	var sink strings.Builder
	_, err := Launch(Config{
		Model: machine.Perlmutter(), NGPUs: 4, Backend: MPIBackend,
		Faults: crashPlan(),
		Flight: &FlightConfig{Sink: &sink},
	}, allreduceLoop)
	if err == nil {
		t.Fatal("expected the uncaught rank failure to fail the run")
	}
	out := sink.String()
	for _, want := range []string{
		"== flight recorder dump: ", "rank 1 declared failed",
		"kill", "interrupt", "rank0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestFlightDumpOnRecoveredFault asserts a run that survives a hard fault
// (every rank catches the failure with env.Try) still dumps, with the
// recovered-outcome header, and that the dump is deterministic.
func TestFlightDumpOnRecoveredFault(t *testing.T) {
	run := func() string {
		var sink strings.Builder
		_, err := Launch(Config{
			Model: machine.Perlmutter(), NGPUs: 4, Backend: MPIBackend,
			Faults: crashPlan(),
			Flight: &FlightConfig{Depth: 64, Sink: &sink},
		}, func(env *Env) {
			env.Try(func() { allreduceLoop(env) })
		})
		if err != nil {
			t.Fatal(err)
		}
		return sink.String()
	}
	out := run()
	if !strings.Contains(out, "== flight recorder dump: recovered from hard fault ==") {
		t.Fatalf("missing recovered-outcome header:\n%s", out)
	}
	if out != run() {
		t.Fatal("flight dump must be byte-identical across identical runs")
	}
}

// TestFlightQuietOnCleanRun asserts a fault-free run writes nothing to the
// sink, and that Attach still saw the run's recorder.
func TestFlightQuietOnCleanRun(t *testing.T) {
	var sink strings.Builder
	var attached []*sim.FlightRecorder
	_, err := Launch(Config{
		Model: machine.Perlmutter(), NGPUs: 8, Backend: MPIBackend,
		Flight: &FlightConfig{
			Sink:   &sink,
			Attach: func(fr *sim.FlightRecorder) { attached = append(attached, fr) },
		},
	}, allreduceLoop)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 0 {
		t.Fatalf("clean run dumped:\n%s", sink.String())
	}
	if len(attached) != 1 {
		t.Fatalf("attached %d recorders, want the run's one", len(attached))
	}
	if attached[0].Total() == 0 {
		t.Error("the recorder saw no entries")
	}
}
