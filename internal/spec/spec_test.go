package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fabric"
)

// TestHashInjectivityGrid sweeps every registered workload against the
// registered machines, backends, and topology kinds and asserts no two
// distinct cells share a content address. The grid deliberately includes
// combinations Validate would reject (GPUSHMEM on LUMI, device API on MPI):
// injectivity is a property of the encoding, not of runnability.
func TestHashInjectivityGrid(t *testing.T) {
	machines := []string{"Perlmutter", "LUMI", "MareNostrum5"}
	backends := []string{"MPI", "GPUCCL", "GPUSHMEM"}
	topologies := []string{"flat", "fattree", "fattree:4", "dragonfly", "dragonfly:1,2,2"}
	sizes := []int64{8, 4096, 1 << 20}

	seen := make(map[string]Spec)
	check := func(s Spec) {
		t.Helper()
		h := s.Hash()
		if len(h) != 64 {
			t.Fatalf("hash of %+v is %q, want 64 hex chars", s, h)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision: %+v and %+v both map to %s", prev, s, h)
		}
		seen[h] = s
	}
	for _, w := range workloads() {
		for _, m := range machines {
			for _, b := range backends {
				for _, topo := range topologies {
					for _, bytes := range sizes {
						s := Spec{Workload: w, Machine: m, Backend: b, Topology: topo, Bytes: bytes}
						if w == WorkloadAllreduce {
							s.Ranks = 64
						}
						check(s)
					}
				}
			}
		}
	}
	// Each remaining dimension, varied alone off the (already-gridded)
	// default base spec.
	for _, s := range []Spec{
		{Workload: WorkloadNetLatency, Bytes: 4096, Native: true},
		{Workload: WorkloadNetLatency, Bytes: 4096, Inter: true},
		{Workload: WorkloadNetLatency, Bytes: 4096, API: "Device"},
		{Workload: WorkloadNetLatency, Bytes: 4096, Iters: 10},
		{Workload: WorkloadNetLatency, Bytes: 4096, Warmup: 3},
		{Workload: WorkloadNetLatency, Bytes: 4096, FaultMode: FaultDegrade, Severity: 0.5},
		{Workload: WorkloadNetLatency, Bytes: 4096, FaultMode: FaultDegrade, Severity: 0.25},
		{Workload: WorkloadNetLatency, Bytes: 4096, FaultMode: FaultGenerate, Severity: 0.5},
		{Workload: WorkloadNetLatency, Bytes: 4096, FaultMode: FaultGenerate, Severity: 0.5, Seed: 7},
		{Workload: WorkloadNetBandwidth, Bytes: 4096, Window: 32},
		{Workload: WorkloadAllreduce, Bytes: 4096, Ranks: 8},
		{Workload: WorkloadAllreduce, Bytes: 4096, Ranks: 8, Alg: "ring"},
		{Workload: WorkloadAllreduce, Bytes: 4096, Ranks: 8, Alg: "hierarchical"},
		{Workload: WorkloadAllreduce, Bytes: 4096, Ranks: 16},
	} {
		check(s)
	}
	t.Logf("%d distinct specs, %d distinct hashes", len(seen), len(seen))
}

// TestHashEquivalences pins the deliberate hash-equivalence class:
// Normalize-equal spellings share an address.
func TestHashEquivalences(t *testing.T) {
	base := Spec{Workload: WorkloadNetLatency, Bytes: 4096}
	same := []Spec{
		{Workload: WorkloadNetLatency, Bytes: 4096, Machine: "Perlmutter"},
		{Workload: WorkloadNetLatency, Bytes: 4096, Backend: "MPI", API: "Host"},
		{Workload: WorkloadNetLatency, Bytes: 4096, Alg: "auto", Topology: "flat"},
	}
	for _, s := range same {
		if s.Hash() != base.Hash() {
			t.Errorf("normalized-equal spec %+v hashes differently from base", s)
		}
	}
	if h := (Spec{Workload: WorkloadNetLatency, Bytes: 4096, Topology: "fat-tree:4"}).Hash(); h != (Spec{Workload: WorkloadNetLatency, Bytes: 4096, Topology: "fattree:4"}).Hash() {
		t.Error("fat-tree:4 and fattree:4 should share a hash")
	}
}

// TestHashGolden pins content addresses across process restarts and code
// changes: these literals were produced by this package and must never drift
// without bumping hashVersion (a drift silently invalidates every persisted
// cache entry — better loudly here).
func TestHashGolden(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Workload: WorkloadNetLatency, Bytes: 4096},
			"f46786a8ff02001f39907e7b177a510d9277ae82d5ee9ed9496123df33397b68"},
		{Spec{Workload: WorkloadNetBandwidth, Bytes: 1 << 20, Inter: true, Backend: "GPUCCL"},
			"97ac85df0419ac2f25dc07931a2debadc49ce7ef3e86fd000941b8ccd7df6f5f"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8192, FaultMode: FaultGenerate, Severity: 0.75, Seed: 42},
			"8fcf72d4921e91e7dbed9db6d31a5b131d1561a94cf9f7c257e4b0af0a4a9e86"},
		{Spec{Workload: WorkloadJacobi, Backend: "GPUSHMEM", API: APIPartial, Ranks: 64, NX: 4096, NY: 4096, Iters: 60, Warmup: 10},
			"bf6815e0a25d83fbd0f8f46e0a69207dfba023cde59fe945ee85d853859e6a10"},
		{Spec{Workload: WorkloadCG, Machine: "LUMI", Native: true, Ranks: 8, Matrix: MatrixQueen, Scale: 0.05, Iters: 30, NoAllgatherv: true},
			"172ab333080dd2531e0a6db60d14965be14aefe690571780653b8163403b3982"},
	}
	for _, c := range cases {
		if got := c.spec.Hash(); got != c.want {
			t.Errorf("golden hash drift for %+v:\n got %s\nwant %s", c.spec, got, c.want)
		}
	}
}

// randSpec draws a random (not necessarily valid) spec; the JSON round-trip
// property must hold for every representable value, not just runnable ones.
func randSpec(r *rand.Rand) Spec {
	pick := func(ss ...string) string { return ss[r.Intn(len(ss))] }
	s := Spec{
		Workload:  pick(workloads()...),
		Machine:   pick("", "Perlmutter", "LUMI", "MareNostrum5"),
		Backend:   pick("", "MPI", "GPUCCL", "GPUSHMEM"),
		API:       pick("", "Host", "Device"),
		Native:    r.Intn(2) == 0,
		Inter:     r.Intn(2) == 0,
		Ranks:     r.Intn(128),
		Bytes:     8 * (1 + r.Int63n(1<<17)),
		Iters:     r.Intn(20),
		Warmup:    r.Intn(5),
		Window:    r.Intn(128),
		Alg:       pick("", "auto", "rd", "ring", "hierarchical"),
		Topology:  pick("", "flat", "fattree", "fattree:4", "dragonfly", "dragonfly:2,4,2"),
		Seed:      r.Uint64(),
		FaultMode: pick(FaultNone, FaultDegrade, FaultGenerate),
	}
	if s.FaultMode != FaultNone {
		s.Severity = float64(r.Intn(100)) / 64 // exact in binary
	}
	if r.Intn(2) == 0 {
		s.NX, s.NY, s.Compute = r.Intn(1<<14), r.Intn(1<<14), r.Intn(2) == 0
		s.Matrix = pick("", MatrixSerena, MatrixQueen, MatrixLaplace, "dense")
		s.Scale = float64(r.Intn(80)) / 64
		s.NoAllgatherv = r.Intn(2) == 0
		s.API = pick(s.API, APIPartial)
	}
	return s
}

// TestJSONRoundTripProperty marshals random specs through JSON and back and
// demands a field-exact round trip plus hash stability on the decoded copy.
func TestJSONRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s := randSpec(r)
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %+v: %v", s, err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the spec:\n before %+v\n after  %+v\n json %s", s, back, data)
		}
		if s.Hash() != back.Hash() {
			t.Fatalf("round trip changed the hash for %s", data)
		}
	}
}

// TestValidate spot-checks the acceptance boundary.
func TestValidate(t *testing.T) {
	ok := []Spec{
		{Workload: WorkloadNetLatency, Bytes: 4096},
		{Workload: WorkloadNetBandwidth, Bytes: 1 << 20, Inter: true, Window: 32},
		{Workload: WorkloadNetLatency, Bytes: 8, Backend: "GPUSHMEM", API: "Device"},
		{Workload: WorkloadAllreduce, Ranks: 8, Bytes: 4096, Alg: "ring"},
		{Workload: WorkloadNetLatency, Bytes: 4096, FaultMode: FaultDegrade, Severity: 1.5},
		{Workload: WorkloadAllreduce, Ranks: 4096, Bytes: 1 << 30, Iters: 99_999, Warmup: 1},
		{Workload: WorkloadNetBandwidth, Bytes: 8, Window: 1024},
		{Workload: WorkloadNetLatency, Bytes: 8, Inter: true, Topology: "fattree:2"},
		{Workload: WorkloadAllreduce, Ranks: 16, Bytes: 64, Topology: "fattree:4"},
		// The applications' counts are literal: a Jacobi cell may take no
		// warm-up at all.
		{Workload: WorkloadJacobi, Ranks: 4, NX: 64, NY: 64, Iters: 1},
		{Workload: WorkloadJacobi, Ranks: 4, NX: 64, NY: 64, Iters: 1, Backend: "GPUSHMEM", API: APIPartial},
		{Workload: WorkloadCG, Ranks: 8, Matrix: MatrixSerena, Scale: 1, Iters: 10_000, Native: true, Backend: "GPUSHMEM", API: "Device"},
		{Workload: WorkloadCG, Ranks: 8, Matrix: MatrixLaplace, Iters: 1, NoAllgatherv: true, Topology: "fattree:4"},
	}
	for _, s := range ok {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	bad := []struct {
		spec Spec
		frag string
	}{
		{Spec{Workload: "osu", Bytes: 8}, "unknown workload"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 12}, "multiple of 8"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 0}, "multiple of 8"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, Machine: "Frontier"}, "unknown machine"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, Backend: "UCX"}, "unknown backend"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, Machine: "LUMI", Backend: "GPUSHMEM"}, "no GPUSHMEM"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, API: "Device"}, "requires the GPUSHMEM"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, API: "host"}, `unknown API "host"`},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, Backend: "GPUSHMEM", API: "device"}, `unknown API "device"`},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, Ranks: 4}, "the net-latency workload does not read ranks"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, Alg: "ring"}, "the net-latency workload does not read alg"},
		{Spec{Workload: WorkloadAllreduce, Ranks: 1, Bytes: 8}, "2 <= ranks <= 4096"},
		{Spec{Workload: WorkloadAllreduce, Ranks: 4, Bytes: 8, Inter: true}, "the allreduce workload does not read inter"},
		{Spec{Workload: WorkloadAllreduce, Ranks: 4, Bytes: 8, Window: 8}, "the allreduce workload does not read window"},
		{Spec{Workload: WorkloadAllreduce, Ranks: 4, Bytes: 8, FaultMode: FaultDegrade, Severity: 0.5}, "the allreduce workload does not read fault_mode"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, FaultMode: "meteor"}, "unknown fault mode"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, Severity: 0.5}, "without a fault mode"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, Iters: -1}, ">= 0"},
		{Spec{Workload: WorkloadAllreduce, Ranks: 100_000_000, Bytes: 8}, "2 <= ranks <= 4096"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 1<<30 + 8}, "multiple of 8 up to 1073741824"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, Iters: 99_000, Warmup: 1_001}, "iters+warmup must be <= 100000"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, Iters: math.MaxInt, Warmup: math.MaxInt}, "iters+warmup must be <= 100000"},
		{Spec{Workload: WorkloadNetBandwidth, Bytes: 8, Window: 1025}, "window <= 1024"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, Topology: "torus"}, "fabric"},
		{Spec{Workload: WorkloadAllreduce, Ranks: 16, Bytes: 64, Topology: "fattree:3"}, "fat-tree arity 3 must be even"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, Topology: "dragonfly:1,1,0"}, "each must be in [1, 32]"},
		{Spec{Workload: WorkloadAllreduce, Ranks: 16, Bytes: 64, Topology: "fattree:2"},
			"topology fattree:2: fabric: 2-ary fat-tree holds 2 nodes, cluster has 4"},
		{Spec{Workload: WorkloadAllreduce, Ranks: 32, Bytes: 64, Machine: "LUMI", Topology: "dragonfly:1,1,1"},
			"holds at most 2 nodes (2 groups), cluster has 4"},
		// A field foreign to the workload, each way round.
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, NX: 64}, "the net-latency workload does not read nx"},
		{Spec{Workload: WorkloadAllreduce, Ranks: 4, Bytes: 8, Matrix: MatrixSerena}, "the allreduce workload does not read matrix"},
		{Spec{Workload: WorkloadJacobi, Ranks: 4, NX: 64, NY: 64, Iters: 1, Bytes: 8}, "the jacobi workload does not read bytes"},
		{Spec{Workload: WorkloadJacobi, Ranks: 4, NX: 64, NY: 64, Iters: 1, Scale: 0.5}, "the jacobi workload does not read scale"},
		{Spec{Workload: WorkloadCG, Ranks: 8, Matrix: MatrixSerena, Scale: 0.05, Iters: 1, Warmup: 1}, "the cg workload does not read warmup"},
		{Spec{Workload: WorkloadCG, Ranks: 8, Matrix: MatrixSerena, Scale: 0.05, Iters: 1, NX: 64}, "the cg workload does not read nx"},
		{Spec{Workload: WorkloadCG, Ranks: 8, Matrix: MatrixSerena, Scale: 0.05, Iters: 1, FaultMode: FaultDegrade, Severity: 1}, "the cg workload does not read fault_mode"},
		// Zero timed iterations is no run, not the default.
		{Spec{Workload: WorkloadJacobi, Ranks: 4, NX: 64, NY: 64}, "need iters >= 1"},
		{Spec{Workload: WorkloadJacobi, Ranks: 4, NX: 64, NY: 64, Iters: 1, Warmup: -1}, "need iters >= 1 and warmup >= 0"},
		{Spec{Workload: WorkloadCG, Ranks: 8, Matrix: MatrixSerena, Scale: 0.05}, "need iters >= 1"},
		{Spec{Workload: WorkloadJacobi, NX: 64, NY: 64, Iters: 1}, "jacobi needs 1 <= ranks <= 4096 (got 0)"},
		// The partial-device launch is UNICONN Jacobi's, on GPUSHMEM.
		{Spec{Workload: WorkloadJacobi, Ranks: 4, NX: 64, NY: 64, Iters: 1, API: APIPartial}, "partial-device launch on GPUSHMEM only"},
		{Spec{Workload: WorkloadJacobi, Ranks: 4, NX: 64, NY: 64, Iters: 1, Backend: "GPUSHMEM", API: APIPartial, Native: true},
			"partial-device launch on GPUSHMEM only"},
		{Spec{Workload: WorkloadCG, Ranks: 8, Matrix: MatrixSerena, Scale: 0.05, Iters: 1, Backend: "GPUSHMEM", API: APIPartial},
			"partial-device launch on GPUSHMEM only"},
		{Spec{Workload: WorkloadNetLatency, Bytes: 8, Backend: "GPUSHMEM", API: APIPartial}, "partial-device launch on GPUSHMEM only"},
		// A matrix the harness does not build, or at a size it cannot.
		{Spec{Workload: WorkloadCG, Ranks: 8, Matrix: "dense", Iters: 1}, `unknown matrix "dense"`},
		{Spec{Workload: WorkloadCG, Ranks: 8, Iters: 1}, `unknown matrix ""`},
		{Spec{Workload: WorkloadCG, Ranks: 8, Matrix: MatrixQueen, Scale: 2, Iters: 1}, "needs a scale in (0, 1] (got 2)"},
		{Spec{Workload: WorkloadCG, Ranks: 8, Matrix: MatrixQueen, Scale: math.NaN(), Iters: 1}, "needs a scale in (0, 1]"},
		{Spec{Workload: WorkloadCG, Ranks: 8, Matrix: MatrixLaplace, Scale: 0.5, Iters: 1}, "takes no scale"},
		{Spec{Workload: WorkloadCG, Ranks: 64, Matrix: MatrixLaplace, Iters: 1, Topology: "fattree:2"}, "2-ary fat-tree holds 2 nodes"},
	}
	for _, c := range bad {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want error containing %q", c.spec, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Validate(%+v) = %q, want it to contain %q", c.spec, err, c.frag)
		}
	}
}

// TestParseTopologyList pins the list-splitting rule the chaos and scale
// CLIs share: numeric segments continue the previous dragonfly spec.
func TestParseTopologyList(t *testing.T) {
	tcs, err := parseTopologyList("flat,fattree:4,dragonfly:1,2,2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tcs) != 3 {
		t.Fatalf("got %d topologies, want 3 (dragonfly params must stay attached)", len(tcs))
	}
	if got := CanonicalTopology(tcs[2]); got != "dragonfly:1,2,2" {
		t.Errorf("third entry = %s, want dragonfly:1,2,2", got)
	}
	if _, err := parseTopologyList("flat,torus"); err == nil {
		t.Error("want an error for an unknown topology in the list")
	}
}

// refPayload is the reference encoding of the hash pre-image, written with
// strings.Builder and one string per field; FuzzSpecHash holds appendPayload
// to it byte for byte.
func refPayload(s Spec) string {
	n := s.Normalize()
	var b strings.Builder
	b.WriteString(hashVersion)
	field := func(name, val string) {
		b.WriteByte('\n')
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(val)
	}
	field("workload", n.Workload)
	field("machine", n.Machine)
	field("backend", n.Backend)
	field("api", n.API)
	field("native", strconv.FormatBool(n.Native))
	field("inter", strconv.FormatBool(n.Inter))
	field("ranks", strconv.Itoa(n.Ranks))
	field("bytes", strconv.FormatInt(n.Bytes, 10))
	field("iters", strconv.Itoa(n.Iters))
	field("warmup", strconv.Itoa(n.Warmup))
	field("window", strconv.Itoa(n.Window))
	field("alg", n.Alg)
	field("topology", n.Topology)
	field("windowed", legacyWindowed)
	field("seed", strconv.FormatUint(n.Seed, 10))
	field("fault_mode", n.FaultMode)
	field("severity", strconv.FormatFloat(n.Severity, 'x', -1, 64))
	// The application lines follow for an application, or a spec that sets
	// any of their fields (a -0 scale included).
	setsApp := n.NX != 0 || n.NY != 0 || n.Compute || n.Matrix != "" || math.Signbit(n.Scale) || n.Scale != 0 || n.NoAllgatherv
	if n.Workload == WorkloadJacobi || n.Workload == WorkloadCG || setsApp {
		field("nx", strconv.Itoa(n.NX))
		field("ny", strconv.Itoa(n.NY))
		field("compute", strconv.FormatBool(n.Compute))
		field("matrix", n.Matrix)
		field("scale", strconv.FormatFloat(n.Scale, 'x', -1, 64))
		field("no_allgatherv", strconv.FormatBool(n.NoAllgatherv))
	}
	return b.String()
}

// decodeQuery decodes one spec document as the serve /query handler did
// before Decode: unknown fields rejected, nothing after the one document.
// It is the reference FuzzSpecDecode holds Decode to.
func decodeQuery(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return s, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return s, errors.New("trailing data after the spec document")
	}
	return s, nil
}

// FuzzSpecHash feeds arbitrary bytes through the /query decoder and, for
// every document that decodes, holds the content address to its contract:
// the pre-image equals the reference encoder's, Normalize is idempotent and
// hash-neutral, Validate agrees on a spec and its normal form, and a JSON
// round trip keeps the hash. The seed corpus runs with the ordinary tests.
func FuzzSpecHash(f *testing.F) {
	for _, s := range []Spec{
		{Workload: WorkloadNetLatency, Bytes: 4096},
		{Workload: WorkloadNetBandwidth, Bytes: 1 << 20, Inter: true, Backend: "GPUCCL"},
		{Workload: WorkloadNetLatency, Bytes: 8192, FaultMode: FaultGenerate, Severity: 0.75, Seed: 42},
	} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 32; i++ {
		data, err := json.Marshal(randSpec(r))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if got, want := string(s.appendPayload(nil)), refPayload(s); got != want {
			t.Fatalf("pre-image drift for %s:\n got %q\nwant %q", data, got, want)
		}
		n := s.Normalize()
		if nn := n.Normalize(); nn != n {
			t.Fatalf("Normalize is not idempotent: %+v then %+v", n, nn)
		}
		h := s.Hash()
		if hn := n.Hash(); hn != h {
			t.Fatalf("Hash(s) = %s but Hash(s.Normalize()) = %s for %s", h, hn, data)
		}
		if e, en := s.Validate(), n.Validate(); (e == nil) != (en == nil) {
			t.Fatalf("Validate disagrees on %s: %v on the spec, %v on its normal form", data, e, en)
		}
		back, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %+v: %v", s, err)
		}
		s2, err := Decode(back)
		if err != nil {
			t.Fatalf("re-decode %s: %v", back, err)
		}
		if s2.Hash() != h {
			t.Fatalf("JSON round trip changed the hash: %s -> %s", data, back)
		}
	})
}

// FuzzTopology holds the topology parser and the fit check to their
// contracts: any string either fails to parse, or parses to a config whose
// canonical spelling re-parses to the same config; and for an accepted
// config and a node count in [1, 1024] that fabric.ResolveTopology accepts,
// building the fabric does not panic. Seeds: every spelling the tests and
// goldens use, and the inputs that used to crash a process.
func FuzzTopology(f *testing.F) {
	for _, s := range []string{"", "flat", "fattree", "fat-tree", "fattree:2", "fattree:4", "fat-tree:4",
		"fattree:8", "fat-tree:8", "dragonfly", "dragonfly:1,1,1", "dragonfly:1,2,2", "dragonfly:2,4,2",
		"dragonfly:4, 8, 4", "dragonfly:4,8", "flat:3", "fattree:x", "torus",
		"fattree:3", "fattree:1", "fattree:-4", "fattree:1000000", "dragonfly:-1,2,2", "dragonfly:1,1,0"} {
		for _, nodes := range []int{1, 2, 3, 16, 17, 1024} {
			f.Add(s, nodes)
		}
	}
	f.Fuzz(func(t *testing.T, s string, nodes int) {
		tc, err := fabric.ParseTopology(s)
		if err != nil {
			return
		}
		canon := CanonicalTopology(tc)
		if back, err := fabric.ParseTopology(canon); err != nil || back != tc {
			t.Fatalf("%q parses to %+v, its canonical spelling %q to %+v (%v)", s, tc, canon, back, err)
		}
		nodes = 1 + (nodes%1024+1024)%1024
		if _, err := fabric.ResolveTopology(tc, nodes); err == nil {
			fabric.New(fabric.Config{Nodes: nodes, GPUsPerNode: 1, NICsPerNode: 1, Topology: tc})
		}
	})
}

// FuzzTopologyList holds the -topology list splitter to its contract: any
// list either fails to parse, or the canonical spellings of its entries,
// joined with ",", re-parse to the same list. Seeds: every list the tests,
// goldens, docs and CI spell, and the refused spellings beside them.
func FuzzTopologyList(f *testing.F) {
	for _, s := range []string{"", ",", "flat", "fattree", "fattree:2", "fattree:3", "fattree:4", "fattree:8",
		"fattree:1000000", "dragonfly", "dragonfly:1,1,0", "dragonfly:1,2,2", "dragonfly:4,8,4", "dragonfly:4, 8, 4",
		"flat,fattree", "flat,fattree,dragonfly", "flat,fattree:4,dragonfly:1,2,2", "flat,fattree,dragonfly:1,2,2",
		"flat,torus", "fat-tree:4,dragonfly:2,4,2,flat", "dragonfly:1,2,2,3", "4,flat", "flat, fattree:8 ,dragonfly"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tcs, err := parseTopologyList(s)
		if err != nil {
			return
		}
		canon := make([]string, len(tcs))
		for i, tc := range tcs {
			canon[i] = CanonicalTopology(tc)
		}
		joined := strings.Join(canon, ",")
		if back, err := parseTopologyList(joined); err != nil || !slices.Equal(back, tcs) {
			t.Fatalf("%q parses to %+v, its canonical spelling %q to %+v (%v)", s, tcs, joined, back, err)
		}
	})
}
