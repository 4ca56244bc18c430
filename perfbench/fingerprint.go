package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"zoomer/internal/tensor"
)

// fingerprint identifies the machine and the code a run measured. Runs
// compare only when their machine parts agree.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	SIMD       string `json:"simd"`
	Commit     string `json:"commit"` // "none" outside a git checkout
	Source     string `json:"source_sha256"`
}

// machine is the part of the fingerprint that must match for two runs
// to be compared; the code identity is what a comparison varies.
func (f fingerprint) machine() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s simd=%s", f.CPU, f.NumCPU, f.GOMAXPROCS, f.Go, f.SIMD)
}

func takeFingerprint() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		SIMD:       tensor.SIMD(),
		Commit:     gitCommit(),
		Source:     sourceDigest(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit is HEAD of the repository the benchmark runs in, when that
// directory is itself a git checkout.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's sources — go.mod and every .go file
// under cmd/ and internal/ — so a run identifies the code it measured
// even outside a git checkout.
func sourceDigest() string {
	var paths []string
	for _, root := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil // an unreadable entry is left out of the digest
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range append([]string{"go.mod"}, paths...) {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
