package a

// rec pins the field rules: only written is write-only, and only never is
// never written.
type rec struct {
	written  int // written, never read
	read     int // written and read
	tagged   int `json:"t"` // read through reflection
	inTest   int // read only by a test file
	testOnly int // written only by a test file
	inner        // embedded: read through its promoted field
	never    int // read, never written
	byAddr   int // written through its address
	byTest   int // read here, written only by a test file
	hits     counter
}

type inner struct{ deep int }

// counter is written through a pointer method of the field holding it.
type counter struct{ n int }

func (c *counter) inc() { c.n++ }

// pair is written positionally.
type pair struct{ x, y int }

// mark is written only positionally, and its tag is never read.
type mark struct{ at, tag int }

// key is a map key and cmp is compared: either reads every field.
type key struct{ k int }

type cmp struct{ c int }

func set(p *int) { *p = 1 }

func fields(m map[key]int) (int, bool) {
	r := rec{written: 1, tagged: 2, inner: inner{deep: 3}}
	r.written++
	r.read = 4
	r.inTest = 5
	m[key{k: 1}] = r.deep
	set(&r.byAddr)
	r.hits.inc()
	p, mk := pair{1, 2}, mark{3, 4}
	return r.read + r.never + r.byAddr + r.byTest + r.hits.n + p.x + p.y + mk.at, cmp{c: 1} == cmp{c: 2}
}
