package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// hostInfo is the fingerprint printed with every result: numbers from
// different hosts do not compare.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

// procsAtStart is GOMAXPROCS as the process found it: the number of
// processors, or fewer if the environment says so.
var procsAtStart = runtime.GOMAXPROCS(0)

func readHost() hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// checkHost enforces the run rule that load comes from at most nproc
// threads: an oversubscribed scheduler measures the host's time slicing.
func checkHost() error {
	if h := readHost(); h.GOMAXPROCS > h.NProc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d; unset GOMAXPROCS or lower it", h.GOMAXPROCS, h.NProc)
	}
	return nil
}

// gitRef names the commit being measured, "unknown" outside a git checkout
// (the acceptance driver's checkouts are plain directories).
func gitRef() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		ref += "-dirty"
	}
	return ref
}
