package core

import (
	"bytes"
	"testing"
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
