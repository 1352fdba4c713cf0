package core

// Hard-fault scheduling and the heartbeat failure detector.
//
// Each rank is modeled as heartbeating every lease/2 of virtual time; a
// monitor declares the rank failed when a full lease elapses after its last
// heartbeat. A rank crashing at time t therefore has
//
//	lastHB   = floor((t-1) / (lease/2)) * lease/2   (a heartbeat at the
//	                                                 crash instant is lost)
//	detectAt = lastHB + lease
//
// which bounds detection latency to [lease/2, lease): a crash just after a
// heartbeat waits out the full lease, one just before the next heartbeat is
// caught half a lease sooner. At detectAt the
// detector records a sim.RankFailedError and interrupts every live process:
// survivors blocked inside collectives or P2P waits get the typed error
// delivered at their park (instead of waiting forever on the dead rank),
// and busy survivors get it at their next blocking operation. The crash
// itself kills the rank's host process and its GPU streams instantly and
// silently — peers only ever learn of it through the detector.
//
// The whole timetable — who crashes, when, and when each crash is declared —
// is a pure function of the fault plan, precomputed at launch into a
// failureSchedule. That makes every failure-state query (epoch, failed set,
// last failure) a pure function of (schedule, virtual time) with no shared
// mutable state (DESIGN.md §14).

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// DetectAt reports when the failure detector declares a rank dead that
// crashed at the given time, under the given heartbeat lease.
func DetectAt(crash sim.Time, lease sim.Duration) sim.Time {
	hb := lease / 2
	if hb <= 0 {
		return crash.Add(lease)
	}
	var lastHB sim.Time
	if crash > 0 {
		lastHB = sim.Time((int64(crash) - 1) / int64(hb) * int64(hb))
	}
	return lastHB.Add(lease)
}

// scheduledCrash is one rank's entry in the static hard-fault timetable.
type scheduledCrash struct {
	rank    int
	at      sim.Time     // the crash instant
	detect  sim.Time     // when the detector declares the rank failed
	latency sim.Duration // detect - at, the detector's declaration delay
	err     *sim.RankFailedError
}

// failureSchedule is the static hard-fault timetable of one run, precomputed
// at launch from the fault plan: one entry per crashed rank (the earliest
// crash wins when a plan lists a rank twice), ordered by (detect time,
// rank). It is immutable once built.
type failureSchedule struct {
	crashes []scheduledCrash
}

func newFailureSchedule(f *faults.Plan, nGPUs int) *failureSchedule {
	lease := f.Lease
	if lease <= 0 {
		lease = faults.DefaultLease
	}
	earliest := map[int]sim.Time{}
	for _, cr := range f.Crashes {
		if cr.Rank < 0 || cr.Rank >= nGPUs {
			panic(fmt.Sprintf("core: crash rank %d outside %d ranks", cr.Rank, nGPUs))
		}
		if at, ok := earliest[cr.Rank]; !ok || cr.At < at {
			earliest[cr.Rank] = cr.At
		}
	}
	s := &failureSchedule{}
	for rank, at := range earliest {
		detect := DetectAt(at, lease)
		s.crashes = append(s.crashes, scheduledCrash{
			rank: rank, at: at, detect: detect, latency: detect.Sub(at),
			err: &sim.RankFailedError{Rank: rank, At: detect},
		})
	}
	sort.Slice(s.crashes, func(i, k int) bool {
		a, b := &s.crashes[i], &s.crashes[k]
		if a.detect != b.detect {
			return a.detect < b.detect
		}
		return a.rank < b.rank
	})
	return s
}

// epochAt counts the failures declared by virtual time t — the failure epoch
// as observed at t.
func (s *failureSchedule) epochAt(t sim.Time) int {
	n := 0
	for _, sc := range s.crashes {
		if sc.detect > t {
			break
		}
		n++
	}
	return n
}

// lastFailureAt reports the most recent failure declared by t, nil if none.
func (s *failureSchedule) lastFailureAt(t sim.Time) *sim.RankFailedError {
	var last *sim.RankFailedError
	for i := range s.crashes {
		if s.crashes[i].detect > t {
			break
		}
		last = s.crashes[i].err
	}
	return last
}

// failedAt reports the ranks declared failed by t, in ascending rank order.
func (s *failureSchedule) failedAt(t sim.Time) []int {
	var out []int
	for _, sc := range s.crashes {
		if sc.detect <= t {
			out = append(out, sc.rank)
		}
	}
	sort.Ints(out)
	return out
}

// epochAt, lastFailureAt: failure-state queries indexed by the caller's
// virtual time. Communicators stamp the epoch they were built in and refuse
// (abort) operations once it moves on.
func (j *job) epochAt(t sim.Time) int {
	if j.sched == nil {
		return 0
	}
	return j.sched.epochAt(t)
}

func (j *job) lastFailureAt(t sim.Time) *sim.RankFailedError {
	if j.sched == nil {
		return nil
	}
	return j.sched.lastFailureAt(t)
}

// armHardFaults schedules the crash kills and the detector declarations onto
// the engine: the timetable is known at launch, so both are plain timers. A
// kill takes the rank's process and GPU streams; a declaration interrupts
// every live process at the virtual detect time.
func (j *job) armHardFaults() {
	for i := range j.sched.crashes {
		sc := &j.sched.crashes[i]
		rank := sc.rank
		j.eng.After(sim.Duration(sc.at), func() {
			j.cfg.Metrics.Counter("core.crashes").Inc()
			j.rankProcs[rank].Kill()
			j.cluster.Devices[rank].Crash()
		})
		latency, ferr := sc.latency, sc.err
		j.eng.After(sim.Duration(sc.detect), func() {
			if r := j.cfg.Metrics; r != nil {
				r.Counter("core.failures").Inc()
				r.Histogram("core.detect.latency_ns").Observe(int64(latency))
			}
			j.eng.InterruptAll(ferr)
		})
	}
}

// Try runs fn and converts a delivered failure (or any sim.Abort) inside it
// into a returned error, leaving the rank process alive — the recovery
// boundary for fault-tolerant applications:
//
//	err := env.Try(func() { core.AllReduce(...); env.StreamSynchronize(s) })
//	var rf *sim.RankFailedError
//	if errors.As(err, &rf) { comm.Revoke(); comm = world.Shrink(); ... }
func (e *Env) Try(fn func()) error { return sim.Protect(fn) }

// Failure reports the most recently declared rank failure, nil while all
// ranks are healthy.
func (e *Env) Failure() *sim.RankFailedError { return e.job.lastFailureAt(e.p.Now()) }

// FailedRanks reports the world ranks declared failed so far, in ascending
// order.
func (e *Env) FailedRanks() []int {
	if e.job.sched == nil {
		return nil
	}
	return e.job.sched.failedAt(e.p.Now())
}

// ResetStream drains the stream and discards any abort recorded by a
// poisoned operation — the recovery-path equivalent of synchronizing after
// ncclCommAbort, called between Shrink and the first operation on the new
// communicator.
func (e *Env) ResetStream(s *gpu.Stream) {
	s.Synchronize(e.p)
	s.TakeAborted()
}
