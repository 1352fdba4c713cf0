package spec

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sameSpec is Spec equality with severity compared bit for bit: a decoded
// -0 is not 0 (the two hash differently).
func sameSpec(a, b Spec) bool {
	return a == b && math.Float64bits(a.Severity) == math.Float64bits(b.Severity)
}

// decodeRules holds one document per rule of Decode's contract. An accepted
// document yields want; a refused one has reject set.
var decodeRules = []struct {
	rule   string
	doc    string
	want   Spec
	reject bool
}{
	{rule: "the form json.Marshal writes", doc: `{"workload":"net-latency","backend":"GPUSHMEM","api":"Device","bytes":4096}`,
		want: Spec{Workload: WorkloadNetLatency, Backend: "GPUSHMEM", API: "Device", Bytes: 4096}},
	{rule: "every field", doc: `{"workload":"allreduce","machine":"LUMI","backend":"GPUCCL","api":"Host","native":true,"inter":true,"ranks":16,"bytes":64,"iters":3,"warmup":1,"window":2,"alg":"ring","topology":"fattree:4","seed":9,"fault_mode":"generate","severity":0.5}`,
		want: Spec{Workload: WorkloadAllreduce, Machine: "LUMI", Backend: "GPUCCL", API: "Host", Native: true, Inter: true, Ranks: 16,
			Bytes: 64, Iters: 3, Warmup: 1, Window: 2, Alg: "ring", Topology: "fattree:4", Seed: 9, FaultMode: FaultGenerate, Severity: 0.5}},
	{rule: "an empty object is the zero spec", doc: `{}`},
	{rule: "a top-level null is the zero spec", doc: `null`},
	{rule: "the four whitespace bytes go anywhere between tokens", doc: " \t\r\n{ \"bytes\" :\t8 ,\"inter\"\n:\rtrue } \n", want: Spec{Bytes: 8, Inter: true}},
	{rule: "a form feed is not whitespace", doc: "\f{}", reject: true},
	{rule: "a vertical tab is not whitespace", doc: "{}\v", reject: true},
	{rule: "a no-break space is not whitespace", doc: "{}\u00a0", reject: true},
	{rule: "a byte-order mark is not whitespace", doc: "\ufeff{}", reject: true},
	{rule: "a key matches case-insensitively", doc: `{"WorkLoad":"allreduce","FAULT_MODE":"degrade"}`, want: Spec{Workload: WorkloadAllreduce, FaultMode: FaultDegrade}},
	{rule: "the Kelvin sign folds to k", doc: "{\"wor\u212aload\":\"allreduce\"}", want: Spec{Workload: WorkloadAllreduce}},
	{rule: "the long s folds to s", doc: "{\"\u017feed\":7}", want: Spec{Seed: 7}},
	{rule: "a dotted capital I does not fold to i", doc: "{\"\u0130nter\":true}", reject: true},
	{rule: "a key may be escaped", doc: `{"\u0062yt\u0065s":16}`, want: Spec{Bytes: 16}},
	{rule: "a value may be escaped", doc: `{"workload":"net\u002Dlatency"}`, want: Spec{Workload: WorkloadNetLatency}},
	{rule: "the two-character escapes", doc: `{"machine":"\"\\\/\b\f\n\r\t"}`, want: Spec{Machine: "\"\\/\b\f\n\r\t"}},
	{rule: "a surrogate pair is one rune", doc: `{"machine":"\ud83d\ude00"}`, want: Spec{Machine: "\U0001F600"}},
	{rule: "a lone high surrogate is U+FFFD", doc: `{"machine":"\ud83dx"}`, want: Spec{Machine: "\uFFFDx"}},
	{rule: "a high surrogate before a non-surrogate escape", doc: `{"machine":"\ud83d\u0041"}`, want: Spec{Machine: "\uFFFDA"}},
	{rule: "two high surrogates then a low one", doc: `{"machine":"\ud83d\ud83d\ude00"}`, want: Spec{Machine: "\uFFFD\U0001F600"}},
	{rule: "a lone low surrogate is U+FFFD", doc: `{"machine":"\uDE00"}`, want: Spec{Machine: "\uFFFD"}},
	{rule: "invalid UTF-8 is U+FFFD a byte at a time", doc: "{\"machine\":\"a\xffb\xe2\x82\"}", want: Spec{Machine: "a\uFFFDb\uFFFD\uFFFD"}},
	{rule: "a surrogate encoded in UTF-8 is invalid UTF-8", doc: "{\"topology\":\"\xed\xa0\x80\"}", want: Spec{Topology: "\uFFFD\uFFFD\uFFFD"}},
	{rule: "invalid UTF-8 and an escape in one string", doc: "{\"machine\":\"\xff\\n\"}", want: Spec{Machine: "\uFFFD\n"}},
	{rule: "a duplicate key takes its last value", doc: `{"bytes":8,"bytes":16,"Bytes":24}`, want: Spec{Bytes: 24}},
	{rule: "null leaves a field as it was", doc: `{"workload":"allreduce","workload":null,"ranks":null,"native":null,"seed":null,"severity":null}`, want: Spec{Workload: WorkloadAllreduce}},
	{rule: "booleans", doc: `{"native":true,"inter":false}`, want: Spec{Native: true}},
	{rule: "an int refuses a fraction", doc: `{"bytes":8.0}`, reject: true},
	{rule: "an int refuses an exponent", doc: `{"ranks":1e2}`, reject: true},
	{rule: "an int refuses an overflow", doc: `{"bytes":9223372036854775808}`, reject: true},
	{rule: "an int takes its extremes", doc: `{"bytes":-9223372036854775808,"iters":9223372036854775807}`, want: Spec{Bytes: math.MinInt64, Iters: math.MaxInt64}},
	{rule: "an int takes -0", doc: `{"window":-0}`},
	{rule: "seed refuses a negative value", doc: `{"seed":-1}`, reject: true},
	{rule: "seed refuses -0", doc: `{"seed":-0}`, reject: true},
	{rule: "seed takes the whole uint64 range", doc: `{"seed":18446744073709551615}`, want: Spec{Seed: math.MaxUint64}},
	{rule: "seed refuses an overflow", doc: `{"seed":18446744073709551616}`, reject: true},
	{rule: "severity takes a fraction and an exponent", doc: `{"severity":2.5E-1}`, want: Spec{Severity: 0.25}},
	{rule: "severity keeps the sign of -0", doc: `{"severity":-0.0}`, want: Spec{Severity: math.Copysign(0, -1)}},
	{rule: "severity refuses an overflow", doc: `{"severity":1e400}`, reject: true},
	{rule: "an unknown field", doc: `{"workload":"net-latency","typo":1}`, reject: true},
	{rule: "the removed engine selector is an unknown field", doc: `{"shards":4}`, reject: true},
	{rule: "an unknown field set to null", doc: `{"typo":null}`, reject: true},
	{rule: "a string for a number", doc: `{"bytes":"8"}`, reject: true},
	{rule: "a number for a string", doc: `{"workload":1}`, reject: true},
	{rule: "a number for a boolean", doc: `{"native":1}`, reject: true},
	{rule: "a string for a boolean", doc: `{"native":"true"}`, reject: true},
	{rule: "a boolean for a number", doc: `{"severity":true}`, reject: true},
	{rule: "an array value", doc: `{"workload":["net-latency"]}`, reject: true},
	{rule: "an object value", doc: `{"workload":{}}`, reject: true},
	{rule: "a top-level array", doc: `[]`, reject: true},
	{rule: "a top-level string", doc: `"net-latency"`, reject: true},
	{rule: "a top-level number", doc: `1`, reject: true},
	{rule: "a top-level boolean", doc: `true`, reject: true},
	{rule: "an empty body", doc: ``, reject: true},
	{rule: "only whitespace", doc: " \n", reject: true},
	{rule: "a second document", doc: `{"bytes":8} {"bytes":8}`, reject: true},
	{rule: "a trailing number", doc: `{}1`, reject: true},
	{rule: "a trailing bracket", doc: `{} ]`, reject: true},
	{rule: "a second null", doc: `null null`, reject: true},
	{rule: "a run-on null", doc: `nullx`, reject: true},
	{rule: "a trailing NUL byte", doc: "{\"bytes\":8}\x00", reject: true},
	{rule: "a trailing comma", doc: `{"bytes":8,}`, reject: true},
	{rule: "a missing colon", doc: `{"bytes" 8}`, reject: true},
	{rule: "a missing comma", doc: `{"bytes":8 "iters":1}`, reject: true},
	{rule: "single quotes", doc: `{'bytes':8}`, reject: true},
	{rule: "an unquoted key", doc: `{bytes:8}`, reject: true},
	{rule: "an escape JSON lacks", doc: `{"machine":"\'"}`, reject: true},
	{rule: "a short \\u escape", doc: `{"machine":"\u12"}`, reject: true},
	{rule: "a short \\u escape after a high surrogate", doc: `{"machine":"\ud83d\u12"}`, reject: true},
	{rule: "a raw control character in a string", doc: "{\"machine\":\"a\tb\"}", reject: true},
	{rule: "a truncated literal", doc: `{"native":tru}`, reject: true},
	{rule: "a run-on literal", doc: `{"native":truex}`, reject: true},
	{rule: "a leading zero", doc: `{"bytes":08}`, reject: true},
	{rule: "a plus sign", doc: `{"bytes":+8}`, reject: true},
	{rule: "a bare minus", doc: `{"bytes":-}`, reject: true},
	{rule: "a dot without digits", doc: `{"severity":1.}`, reject: true},
	{rule: "a leading dot", doc: `{"severity":.5}`, reject: true},
	{rule: "an exponent without digits", doc: `{"severity":1e+}`, reject: true},
	{rule: "an unterminated string", doc: `{"machine":"abc`, reject: true},
	{rule: "an unterminated escape", doc: `{"machine":"abc\`, reject: true},
	{rule: "an unterminated object", doc: `{"bytes":8`, reject: true},
}

// TestDecodeContract runs one document per rule of the contract through
// Decode and through the encoding/json reference: both must give the row's
// answer, and a refusal names its offset.
func TestDecodeContract(t *testing.T) {
	for _, c := range decodeRules {
		got, err := Decode([]byte(c.doc))
		switch {
		case c.reject && err == nil:
			t.Errorf("%s: Decode(%q) = %+v, want a refusal", c.rule, c.doc, got)
		case c.reject && !strings.HasPrefix(err.Error(), "offset "):
			t.Errorf("%s: refusal %q names no offset", c.rule, err)
		case !c.reject && err != nil:
			t.Errorf("%s: Decode(%q): %v", c.rule, c.doc, err)
		case !c.reject && !sameSpec(got, c.want):
			t.Errorf("%s: Decode(%q) = %+v, want %+v", c.rule, c.doc, got, c.want)
		}
		ref, rerr := decodeQuery([]byte(c.doc))
		if (rerr != nil) != c.reject || rerr == nil && !sameSpec(ref, c.want) {
			t.Errorf("%s: the encoding/json reference disagrees with the row: %+v, %v", c.rule, ref, rerr)
		}
	}
}

// TestDecodeErrorOffsets pins where a refusal points: at the key, the value
// or the byte out of place.
func TestDecodeErrorOffsets(t *testing.T) {
	for doc, want := range map[string]string{
		`{"bytes":8,"typo":1}`: `offset 11: unknown field "typo"`,
		`{"bytes":"8"}`:        `offset 9: field "bytes" does not take a JSON string`,
		`{"bytes":1.5}`:        `offset 9: field "bytes": strconv.ParseInt: parsing "1.5": invalid syntax`,
		`{"bytes":8} x`:        `offset 12: trailing data after the spec document`,
		`{"bytes":8`:           `offset 10: unexpected end of JSON input`,
		`[]`:                   `offset 0: a spec is a JSON object, found '['`,
	} {
		if _, err := Decode([]byte(doc)); err == nil || err.Error() != want {
			t.Errorf("Decode(%q) error = %v, want %s", doc, err, want)
		}
	}
}

// marshal is json.Marshal for a seed spec.
func marshal(f *testing.F, s Spec) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzSpecDecode holds Decode to the decoder the /query handler used before
// it, encoding/json (decodeQuery): on every input up to the handler's 1 MiB
// cap both accept or both refuse, and an accepted document gives the same
// spec. Seeds: one document per contract rule, every body the serve tests
// and the CI serve smoke step post, the benchmark's serve grid as
// json.Marshal writes it, and random specs over every field.
func FuzzSpecDecode(f *testing.F) {
	for _, c := range decodeRules {
		f.Add([]byte(c.doc))
	}
	for _, doc := range []string{
		`{"workload":"net-latency","bytes":4096}`,
		`{"workload":"net-latency","bytes":4096}` + "\n",
		`{"workload":"net-latency","backend":"GPUSHMEM","api":"Device","bytes":4096}`,
		`{"workload":"net-latency","bytes":8,"fault_mode":"generate","severity":0.5}`,
		`{"workload":"nope","bytes":8}`,
		`{"workload":"allreduce","ranks":100000000,"bytes":8}`,
		`{"workload":"allreduce","ranks":16,"bytes":64,"topology":"fattree:3"}`,
		`{"workload":"allreduce","ranks":16,"bytes":64,"topology":"fattree:2"}`,
		`{"workload":"allreduce","ranks":16,"bytes":64,"topology":"dragonfly:1,1,0"}`,
		`{"workload":"allreduce","ranks":16,"bytes":64,"topology":"fattree:4"}`,
		`{"workload":"net-latency","bytes":4096,"typo":1}`,
		`{"workload":"net-latency","bytes":4096,"shards":4}`,
		`{"workload":"net-latency","bytes":4096} {"workload":"nope"}`,
		`{"workload":"net-latency","bytes":4096} 1`,
		`{"workload":"net-latency","bytes":4096} ]`,
		`{"workload":"allreduce","ranks":16,"bytes":65536}`,
	} {
		f.Add([]byte(doc))
	}
	r := rand.New(rand.NewSource(3))
	for _, wl := range []string{WorkloadNetLatency, WorkloadNetBandwidth} {
		for _, ba := range [][2]string{{"MPI", "Host"}, {"GPUCCL", "Host"}, {"GPUSHMEM", "Host"}, {"GPUSHMEM", "Device"}} {
			for _, native := range []bool{false, true} {
				for _, inter := range []bool{false, true} {
					for _, size := range []int64{256, 16 << 10, 8 + 8*r.Int63n(512)} {
						f.Add(marshal(f, Spec{Workload: wl, Backend: ba[0], API: ba[1], Native: native, Inter: inter, Bytes: size}))
					}
				}
			}
		}
	}
	for i := 0; i < 32; i++ {
		f.Add(marshal(f, randSpec(r)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		got, err := Decode(data)
		want, werr := decodeQuery(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: Decode error %v, encoding/json error %v", data, err, werr)
		}
		if err == nil && !sameSpec(got, want) {
			t.Fatalf("%q: Decode gives %+v, encoding/json %+v", data, got, want)
		}
	})
}
