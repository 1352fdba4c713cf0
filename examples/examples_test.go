// Package examples holds the test that runs the example programs: each one
// builds, runs with its default flags, and prints exactly its stdout of
// record, testdata/<example>.golden, so the public-API walk-through that
// README.md points at cannot rot. To refresh a golden after an intended
// change, from this directory:
//
//	go test . -update
package examples

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

	// The examples are built in a subprocess, which go test's result cache
	// does not see. Importing what they import makes the test binary, and so
	// the cache, depend on it; TestStdout stats their own sources.
	_ "repro"
	_ "repro/internal/sparse"
)

var update = flag.Bool("update", false, "rewrite testdata/<example>.golden")

var examples = []string{"cg", "chaos", "collectives", "jacobi", "pingpong", "quickstart"}

func TestStdout(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", bin+string(filepath.Separator), "./...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, name := range examples {
		if _, err := os.Stat(filepath.Join(name, "main.go")); err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from %s:\n%s", golden, stdout.Bytes())
			}
		})
	}
}
