// uniconn is the repository's one command: every driver of the simulated
// clusters is a subcommand, each a plain function over its own flag set so
// tests drive it in-process (see main_test.go for the stdout goldens).
//
// Usage:
//
//	uniconn <subcommand> [flags]
//	uniconn <subcommand> -h
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/bench"
)

// A subcommand parses args with its own flag set, writes results to stdout
// and diagnostics to stderr, and reports failure as an error.
type subcommand struct {
	name    string
	run     func(args []string, stdout, stderr io.Writer) error
	summary string
}

var subcommands = []subcommand{
	{"netbench", netbench, "latency/bandwidth microbenchmark tables, native vs UNICONN (§VI-B)"},
	{"jacobi", jacobiCmd, "Jacobi 2D scaling experiment (§VI-C)"},
	{"cg", cgCmd, "Conjugate Gradient experiment and its no-Allgatherv ablation (§VI-D)"},
	{"experiments", experiments, "regenerate the paper's tables and figures"},
	{"scale", scale, "allreduce rank-scaling curves across topologies and algorithms"},
	{"chaos", chaos, "fault-severity degradation curves and the hard-fault recovery sweep"},
	{"prof", prof, "deterministic performance report of one workload"},
	{"advisor", advisor, "performance-guided backend selection (§VIII)"},
	{"serve", serveCmd, "what-if query service (HTTP/JSON)"},
	{"sloc", slocCmd, "Table II, or per-file source line counts"},
}

// usageError marks a failure the user caused on the command line and that
// has already been reported together with the usage text: exit status 2,
// as the flag package's ExitOnError gave the programs this command replaces.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// newFlagSet returns the flag set of one subcommand, reporting to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("uniconn "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args; the flag package has already printed any error.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return nil
}

// badUsage reports a malformed invocation the flag package cannot catch (a
// value out of range) the way it reports one it can: message, usage, status 2.
func badUsage(fs *flag.FlagSet, format string, a ...any) error {
	err := fmt.Errorf(format, a...)
	fmt.Fprintln(fs.Output(), err)
	fs.Usage()
	return usageError{err}
}

// rejectUnread refuses, as a usage error naming the flag and the mode, a
// flag set on the command line that the chosen mode never reads, instead of
// accepting it and silently ignoring it.
func rejectUnread(fs *flag.FlagSet, mode string, unread ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(unread, f.Name) {
			err = badUsage(fs, "-%s has no effect in %s", f.Name, mode)
		}
	})
	return err
}

// writeFile creates path and streams write into it: the -json, -trace and
// -profile outputs.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeProfile writes the Chrome trace of a sweep's cells where -profile
// says, if it was given, and reports the file on stdout.
func writeProfile(stdout io.Writer, path string, rp *bench.RunProfile) error {
	if path == "" {
		return nil
	}
	if err := writeFile(path, rp.WriteChromeTrace); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// run dispatches to a subcommand and maps its outcome to an exit status.
func run(args []string, stdout, stderr io.Writer) int {
	usage := func() int {
		fmt.Fprintln(stderr, "usage: uniconn <subcommand> [flags]   (uniconn <subcommand> -h lists the flags)")
		for _, c := range subcommands {
			fmt.Fprintf(stderr, "  %-12s %s\n", c.name, c.summary)
		}
		return 2
	}
	if len(args) == 0 {
		return usage()
	}
	for _, c := range subcommands {
		if c.name != args[0] {
			continue
		}
		err := c.run(args[1:], stdout, stderr)
		var ue usageError
		switch {
		case err == nil || errors.Is(err, flag.ErrHelp):
			return 0
		case errors.As(err, &ue):
			return 2
		}
		fmt.Fprintf(stderr, "uniconn %s: %v\n", c.name, err)
		return 1
	}
	fmt.Fprintf(stderr, "uniconn: unknown subcommand %q\n", args[0])
	return usage()
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
