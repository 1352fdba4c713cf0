package spec

// The /query body decoder. A spec document is a flat object of scalar
// fields, so one pass over the bytes with no reflection replaces
// encoding/json on the service's hot path. Its contract is to accept exactly
// the documents a json.Decoder with DisallowUnknownFields accepts when
// nothing but whitespace follows the one value, and to yield the same Spec
// for them; FuzzSpecDecode holds it to that reference.

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Decode parses one spec JSON document: an object whose keys name Spec
// fields, or a top-level null, which is the zero spec, with only the four
// JSON whitespace bytes around it. A key matches its field exactly or by
// bytes.EqualFold, encoding/json's rule. A duplicate key takes its last
// value, and null leaves a field as it was. Integer fields refuse a fraction,
// an exponent or an overflow, and seed refuses a sign. Escapes and surrogate
// pairs decode as in encoding/json, and invalid UTF-8 inside a string
// becomes U+FFFD. The error of a refused document names its byte offset.
func Decode(b []byte) (Spec, error) {
	d := decoder{b: b}
	var s Spec
	d.space()
	if !d.literal("null") {
		if err := d.object(&s); err != nil {
			return Spec{}, err
		}
	}
	d.space()
	if d.i < len(b) {
		return Spec{}, d.errorf(d.i, "trailing data after the spec document")
	}
	return s, nil
}

// decoder is Decode's cursor over one document.
type decoder struct {
	b []byte
	i int
}

// errType reports a value of a JSON type its field does not take.
var errType = errors.New("wrong JSON type")

// errorf reports a refusal at offset at; past the end of the input it is
// the input's unexpected end, whatever the format says.
func (d *decoder) errorf(at int, format string, args ...any) error {
	if at >= len(d.b) {
		return fmt.Errorf("offset %d: unexpected end of JSON input", at)
	}
	return fmt.Errorf("offset %d: %s", at, fmt.Sprintf(format, args...))
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end: a raw 0 byte is out
// of place wherever peek looks, so the two never need telling apart.
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// literal consumes w if the input continues with it.
func (d *decoder) literal(w string) bool {
	if len(d.b)-d.i >= len(w) && string(d.b[d.i:d.i+len(w)]) == w {
		d.i += len(w)
		return true
	}
	return false
}

// object decodes the object at the cursor into s.
func (d *decoder) object(s *Spec) error {
	if d.peek() != '{' {
		return d.errorf(d.i, "a spec is a JSON object, found %q", d.peek())
	}
	d.i++
	d.space()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		at := d.i
		if d.peek() != '"' {
			return d.errorf(at, "expected a string key, found %q", d.peek())
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.errorf(d.i, "expected ':' after a key, found %q", d.peek())
		}
		d.i++
		d.space()
		if err := d.field(s, at, key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case '}':
			d.i++
			return nil
		default:
			return d.errorf(d.i, "expected ',' or '}' after a value, found %q", d.peek())
		}
	}
}

// fieldNames are the Spec fields' JSON names.
var fieldNames = [...]string{"workload", "machine", "backend", "api", "native", "inter", "ranks",
	"bytes", "iters", "warmup", "window", "alg", "topology", "seed", "fault_mode", "severity",
	"nx", "ny", "compute", "matrix", "scale", "no_allgatherv"}

// fieldName returns the name of the field key selects.
func fieldName(key []byte) (string, bool) {
	for _, n := range fieldNames {
		if string(key) == n {
			return n, true
		}
	}
	for _, n := range fieldNames {
		if bytes.EqualFold(key, []byte(n)) {
			return n, true
		}
	}
	return "", false
}

// field decodes the value at the cursor into the field key selects; at is
// the key's offset.
func (d *decoder) field(s *Spec, at int, key []byte) error {
	name, ok := fieldName(key)
	if !ok {
		return d.errorf(at, "unknown field %q", key)
	}
	vat := d.i
	typ, lit, err := d.scalar()
	if err != nil || typ == 'n' {
		return err
	}
	switch name {
	case "workload":
		s.Workload, err = text(typ, lit)
	case "machine":
		s.Machine, err = text(typ, lit)
	case "backend":
		s.Backend, err = text(typ, lit)
	case "api":
		s.API, err = text(typ, lit)
	case "native":
		s.Native, err = boolean(typ)
	case "inter":
		s.Inter, err = boolean(typ)
	case "ranks":
		s.Ranks, err = integer(typ, lit)
	case "bytes":
		s.Bytes, err = parseInt(typ, lit, 64)
	case "iters":
		s.Iters, err = integer(typ, lit)
	case "warmup":
		s.Warmup, err = integer(typ, lit)
	case "window":
		s.Window, err = integer(typ, lit)
	case "alg":
		s.Alg, err = text(typ, lit)
	case "topology":
		s.Topology, err = text(typ, lit)
	case "seed":
		err = errType
		if typ == '0' {
			s.Seed, err = strconv.ParseUint(string(lit), 10, 64)
		}
	case "fault_mode":
		s.FaultMode, err = text(typ, lit)
	case "severity":
		s.Severity, err = float(typ, lit)
	case "nx":
		s.NX, err = integer(typ, lit)
	case "ny":
		s.NY, err = integer(typ, lit)
	case "compute":
		s.Compute, err = boolean(typ)
	case "matrix":
		s.Matrix, err = text(typ, lit)
	case "scale":
		s.Scale, err = float(typ, lit)
	case "no_allgatherv":
		s.NoAllgatherv, err = boolean(typ)
	}
	switch {
	case err == errType:
		return d.errorf(vat, "field %q does not take a JSON %s", name, typeName(typ))
	case err != nil:
		return d.errorf(vat, "field %q: %v", name, err)
	}
	return nil
}

// typeName names a value type scalar reports.
func typeName(typ byte) string {
	switch typ {
	case '"':
		return "string"
	case '0':
		return "number"
	}
	return "boolean"
}

// enumValues are the names a spec's string fields usually hold: text returns
// these strings rather than allocating a copy of one.
var enumValues = [...]string{
	WorkloadNetLatency, WorkloadNetBandwidth, WorkloadAllreduce,
	"Perlmutter", "LUMI", "MareNostrum5",
	"MPI", "GPUCCL", "GPUSHMEM",
	"Host", "Device",
	"auto", "rd", "ring", "hierarchical",
	"flat", "fattree", "dragonfly",
	FaultDegrade, FaultGenerate,
	WorkloadJacobi, WorkloadCG, APIPartial, MatrixSerena, MatrixQueen, MatrixLaplace,
}

func text(typ byte, lit []byte) (string, error) {
	if typ != '"' {
		return "", errType
	}
	for _, v := range enumValues {
		if string(lit) == v {
			return v, nil
		}
	}
	return string(lit), nil
}

func boolean(typ byte) (bool, error) {
	if typ != 't' && typ != 'f' {
		return false, errType
	}
	return typ == 't', nil
}

func float(typ byte, lit []byte) (float64, error) {
	if typ != '0' {
		return 0, errType
	}
	return strconv.ParseFloat(string(lit), 64)
}

func integer(typ byte, lit []byte) (int, error) {
	n, err := parseInt(typ, lit, strconv.IntSize)
	return int(n), err
}

// parseInt is encoding/json's rule for a signed field: the number's literal
// must parse as a base-10 integer of the field's size.
func parseInt(typ byte, lit []byte, bits int) (int64, error) {
	if typ != '0' {
		return 0, errType
	}
	return strconv.ParseInt(string(lit), 10, bits)
}

// scalar consumes the value at the cursor. typ is '"' for a string (lit is
// its unquoted text), 't' or 'f' for true or false, 'n' for null, and '0' for
// a number (lit is its literal). An object or an array is refused: no spec
// field takes one.
func (d *decoder) scalar() (typ byte, lit []byte, err error) {
	switch c := d.peek(); {
	case c == '"':
		lit, err = d.str()
		return c, lit, err
	case c == 't' && d.literal("true"), c == 'f' && d.literal("false"), c == 'n' && d.literal("null"):
		return c, nil, nil
	case c == '-' || '0' <= c && c <= '9':
		lit, err = d.number()
		return '0', lit, err
	case c == '{' || c == '[':
		return 0, nil, d.errorf(d.i, "no spec field takes a JSON object or array")
	default:
		return 0, nil, d.errorf(d.i, "expected a value, found %q", c)
	}
}

// digitsEnd returns the offset past the run of decimal digits at b[i:].
func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// number consumes a JSON number and returns its literal.
func (d *decoder) number() ([]byte, error) {
	b, start := d.b, d.i
	i := start
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i)
	default:
		return nil, d.errorf(i, "invalid number: expected a digit")
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return nil, d.errorf(j, "invalid number: expected a digit after '.'")
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return nil, d.errorf(j, "invalid number: expected an exponent digit")
		}
		i = j
	}
	d.i = i
	return b[start:i], nil
}

// str consumes the string at the cursor and returns its unquoted text: a
// subslice of the input when the string holds no escape and is valid UTF-8,
// a fresh buffer otherwise.
func (d *decoder) str() ([]byte, error) {
	b, start := d.b, d.i+1
	for i := start; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return b[start:i], nil
		case c == '\\':
			return d.unquote(start, i)
		case c < ' ':
			return nil, d.errorf(i, "control character %q in a string", c)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	return nil, d.errorf(len(b), "unterminated string")
}

// unquote is str's slow path from offset i on, where the text differs from
// the input: escapes are decoded (a lone surrogate becomes U+FFFD) and each
// byte of invalid UTF-8 becomes U+FFFD, as in encoding/json.
func (d *decoder) unquote(start, i int) ([]byte, error) {
	b := d.b
	out := append(make([]byte, 0, i-start+16), b[start:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return out, nil
		case c == '\\':
			if i+1 >= len(b) {
				return nil, d.errorf(i+1, "unterminated string")
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(b[i:])
				if r < 0 {
					return nil, d.errorf(i, "invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A high surrogate and the low one escaped after it are
					// one rune. Anything else leaves a lone surrogate, which
					// is U+FFFD, and the next escape is decoded on its own.
					if r = utf16.DecodeRune(r, hex4(b[i:])); r != utf8.RuneError {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				return nil, d.errorf(i, "invalid escape %q", b[i:i+2])
			}
			i += 2
		case c < ' ':
			return nil, d.errorf(i, "control character %q in a string", c)
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return nil, d.errorf(len(b), "unterminated string")
}

// hex4 decodes the \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
