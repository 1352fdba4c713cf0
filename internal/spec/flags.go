package spec

// Shared CLI flag plumbing. The subcommands of cmd/uniconn used to be ten
// programs that each registered their own copies of -machine, -live,
// -topology and -min/-max, with hand-rolled parsing and — inevitably —
// drifting defaults and checks (one tool accepted -min 0 and crashed in the
// size sweep). The helpers here are the single source of those flags: one
// usage string, one default, one resolution and validation rule, everywhere.

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/fabric"
	"repro/internal/machine"
)

// topologyUsage is the shared -topology usage string.
const topologyUsage = "inter-node network: flat|fattree[:k]|dragonfly[:p,a,h] " +
	"(fat-tree arity / dragonfly p,a,h auto-size when omitted)"

// CommonFlags holds the flags the subcommands share and, after Resolve, what
// they select. Only -machine is always registered.
type CommonFlags struct {
	machine, topology   string
	topologyList, sized bool

	// Live is the -live value.
	Live string
	// MinSize and MaxSize are the -min/-max bounds (Sizes).
	MinSize, MaxSize int64
	// Topologies is the parsed -topology: one network, or with TopologyList
	// the list.
	Topologies []fabric.TopologyConfig
}

// MachineOnly registers -machine alone, for the single-run subcommands
// (jacobi, cg, advisor) that take no sweep knobs.
func MachineOnly(fs *flag.FlagSet) *CommonFlags {
	c := &CommonFlags{}
	fs.StringVar(&c.machine, "machine", "Perlmutter", "Perlmutter|LUMI|MareNostrum5")
	return c
}

// Common registers -machine and -live on the flag set with the canonical
// defaults and usage strings. Call before Parse.
func Common(fs *flag.FlagSet) *CommonFlags {
	c := MachineOnly(fs)
	fs.StringVar(&c.Live, "live", "",
		"serve live telemetry HTTP on this address (host:port, :0 picks a port): "+
			"/metrics /healthz /debug/runs /debug/flight; stdout stays byte-identical")
	return c
}

// Topology registers the single-topology -topology flag; Resolve applies it
// to the model.
func (c *CommonFlags) Topology(fs *flag.FlagSet) {
	fs.StringVar(&c.topology, "topology", "flat", topologyUsage)
}

// TopologyList registers a -topology flag that accepts a comma-separated
// list, for subcommands that sweep topologies; Resolve parses it.
func (c *CommonFlags) TopologyList(fs *flag.FlagSet, def string) {
	fs.StringVar(&c.topology, "topology", def, topologyUsage+"; accepts a comma-separated list")
	c.topologyList = true
}

// Sizes registers the -min/-max bounds of a message-size sweep; of
// qualifies the usage strings (" of the net sweep") where the sweep is one
// mode among several.
func (c *CommonFlags) Sizes(fs *flag.FlagSet, defMax int64, of string) {
	fs.Int64Var(&c.MinSize, "min", 8, "smallest message"+of+" (bytes)")
	fs.Int64Var(&c.MaxSize, "max", defMax, "largest message"+of+" (bytes)")
	c.sized = true
}

// Resolve validates the parsed flags and returns the -machine model. A
// single -topology is applied to it, clone-on-override, so the topology
// reaches every workload launched on the shared model value; either form is
// parsed into Topologies. A doubling size sweep needs a positive start and
// an end at or above it.
func (c *CommonFlags) Resolve() (*machine.Model, error) {
	m := machine.ByName(c.machine)
	if m == nil {
		return nil, fmt.Errorf("unknown machine %q", c.machine)
	}
	var err error
	if c.topologyList {
		c.Topologies, err = parseTopologyList(c.topology)
	} else {
		var tc fabric.TopologyConfig // flat when -topology is not registered
		tc, err = fabric.ParseTopology(c.topology)
		m = WithTopology(m, tc)
		c.Topologies = []fabric.TopologyConfig{tc}
	}
	if err != nil {
		return nil, err
	}
	if c.sized && c.MinSize < 1 {
		return nil, fmt.Errorf("-min %d: smallest message must be at least 1 byte", c.MinSize)
	}
	if c.sized && c.MaxSize < c.MinSize {
		return nil, fmt.Errorf("-max %d is smaller than -min %d", c.MaxSize, c.MinSize)
	}
	return m, nil
}

// Spec returns the base spec of the resolved flags: the -machine name and,
// when -topology names one network, that network in canonical spelling.
// Callers fill in the workload and the cell's own fields.
func (c *CommonFlags) Spec() Spec {
	s := Spec{Machine: c.machine}
	if len(c.Topologies) == 1 {
		s.Topology = CanonicalTopology(c.Topologies[0])
	}
	return s
}

// parseTopologyList splits a comma-separated topology list, keeping numeric
// dragonfly parameters attached to their spec: "flat,fattree:4,dragonfly:1,2,2"
// is three topologies, not six. Topology names never start with a digit, so a
// purely numeric segment always continues the previous spec.
func parseTopologyList(s string) ([]fabric.TopologyConfig, error) {
	var specs []string
	for _, seg := range strings.Split(s, ",") {
		seg = strings.TrimSpace(seg)
		if len(specs) > 0 && seg != "" && seg[0] >= '0' && seg[0] <= '9' {
			specs[len(specs)-1] += "," + seg
			continue
		}
		specs = append(specs, seg)
	}
	out := make([]fabric.TopologyConfig, 0, len(specs))
	for _, sp := range specs {
		tc, err := fabric.ParseTopology(sp)
		if err != nil {
			return nil, err
		}
		out = append(out, tc)
	}
	return out, nil
}
