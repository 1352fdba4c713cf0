package a

// rec pins the write-only rule: only written is flagged.
type rec struct {
	written  int // written, never read
	read     int // written and read
	tagged   int `json:"t"` // read through reflection
	inTest   int // read only by a test file
	testOnly int // written only by a test file
	inner        // embedded: read through its promoted field
}

type inner struct{ deep int }

// key is a map key and cmp is compared: either reads every field.
type key struct{ k int }

type cmp struct{ c int }

func fields(m map[key]int) (int, bool) {
	r := rec{written: 1, tagged: 2, inner: inner{deep: 3}}
	r.written++
	r.read = 4
	r.inTest = 5
	m[key{k: 1}] = r.deep
	return r.read, cmp{c: 1} == cmp{c: 2}
}
