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
// scale`'s cells) turns its controller off at the first head and simulates
// every iteration, while a loop long enough to skip keeps the controller.
// Neither launch records spans: without the caller's log, no span log exists
// for the controller or the fabric to fill.
func TestFastForwardStopsBeforeShortPhases(t *testing.T) {
	for _, c := range []struct {
		iters int
		off   bool
	}{{2, true}, {20, false}} {
		var f *fastForward
		var offAtFirst, traced bool
		cfg := Config{Model: machine.Perlmutter(), NGPUs: 4, Backend: MPIBackend}
		_, simulated, err := LaunchLoops(cfg, 1, false, func(env *Env) {
			for it := range env.Loop(env.Proc(), 0, 1+c.iters) {
				if it == 0 && env.WorldRank() == 0 {
					f, offAtFirst = env.job.ff, env.job.ff.off
				}
				traced = traced || env.Device().Cluster().Fabric.Trace != nil
				env.MPIComm().Barrier(env.Proc())
			}
		})
		switch {
		case err != nil:
			t.Fatalf("%d timed iterations: %v", c.iters, err)
		case f == nil || offAtFirst != c.off || f.off != c.off:
			t.Errorf("%d timed iterations: controller off %v at the first head, %v at the end; want %v",
				c.iters, offAtFirst, f != nil && f.off, c.off)
		case c.off && simulated != 1+c.iters:
			t.Errorf("%d timed iterations: simulated %d, want %d", c.iters, simulated, 1+c.iters)
		case f.log != nil || traced:
			t.Errorf("%d timed iterations: an untraced launch has a span log (controller %v, fabric %v)", c.iters, f.log != nil, traced)
		}
	}
}
