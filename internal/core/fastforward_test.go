package core

import (
	"bytes"
	"testing"

	"repro/internal/machine"
)

// TestFastForwardLoopOffsets: two states whose ranks' loop offsets differ by
// 256 encode differently (an offset once wrapped modulo 256, so a rank 257
// iterations ahead looked like a rank one ahead).
func TestFastForwardLoopOffsets(t *testing.T) {
	encode := func(curs ...int) []byte {
		f := &fastForward{}
		for _, c := range curs {
			f.loops = append(f.loops, &ffLoop{active: true, cur: c})
		}
		b, ok := f.appendLoops(nil, curs[0], -1000) // every loop in the second phase
		if !ok {
			t.Fatalf("loops %v: not comparable", curs)
		}
		return b
	}
	for _, pair := range [][2][]int{
		{{0, 1}, {0, 257}},
		{{5, 4}, {5, -252}},
		{{10, 11, 12}, {10, 11, 268}},
	} {
		if a, b := encode(pair[0]...), encode(pair[1]...); bytes.Equal(a, b) {
			t.Errorf("loops %v and %v encode equal: %x", pair[0], pair[1], a)
		}
	}
	if a, b := encode(3, 4, 2), encode(103, 104, 102); !bytes.Equal(a, b) {
		t.Errorf("equal offsets encode differently: %x, %x", a, b)
	}
}

// TestFastForwardStopsBeforeShortPhases: a skip needs ffRepeats heads of its
// phase before it and a cycle after it, so a launch whose phases are all
// shorter than ffRepeats+2 iterations (one warm-up, two timed: `uniconn
// scale`'s cells) turns its controller off at the first head, and its
// private log records nothing after it. A loop long enough to skip keeps the
// controller and the log.
func TestFastForwardStopsBeforeShortPhases(t *testing.T) {
	for _, c := range []struct {
		iters int
		off   bool
	}{{2, true}, {20, false}} {
		var f *fastForward
		first := -1
		cfg := Config{Model: machine.Perlmutter(), NGPUs: 4, Backend: MPIBackend}
		_, simulated, err := LaunchLoops(cfg, 1, false, func(env *Env) {
			for it := range env.Loop(env.Proc(), 0, 1+c.iters) {
				if it == 0 && env.WorldRank() == 0 {
					f, first = env.job.ff, env.job.ff.log.Len()
				}
				env.MPIComm().Barrier(env.Proc())
			}
		})
		switch {
		case err != nil:
			t.Fatalf("%d timed iterations: %v", c.iters, err)
		case f == nil || !f.private || f.off != c.off:
			t.Errorf("%d timed iterations: controller off %v, want %v", c.iters, f != nil && f.off, c.off)
		case c.off && (simulated != 1+c.iters || f.log.Len() != first):
			t.Errorf("%d timed iterations: simulated %d, log grew from %d to %d spans after the first head; want %d and none",
				c.iters, simulated, first, f.log.Len(), 1+c.iters)
		case !c.off && f.log.Len() == first:
			t.Errorf("%d timed iterations: the private log recorded nothing after the first head", c.iters)
		}
	}
}
