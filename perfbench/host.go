package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo identifies the machine and the code a result was measured
// on. Commit comes from the build's VCS stamp; Source is a digest of the
// module's Go sources, which also identifies code built outside git.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Source     string `json:"source_digest"`
}

func readHost(root string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Source:     sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown (not built from a git checkout)"
	case dirty:
		return rev + "+modified"
	}
	return rev
}

// sourceDigest hashes the path and contents of every .go file and
// go.mod under root, skipping hidden directories.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, p+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-resident-memory mark of this
// process, so peakRSSBytes reports the peak since the reset. Where the
// kernel does not allow it, the peak stays the one since process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSBytes is the process's peak resident set size since the last
// resetPeakRSS (VmHWM), or since process start where /proc is missing.
func peakRSSBytes() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // kilobytes on Linux
}

// percentile returns the p-th percentile of xs (linear interpolation
// between closest ranks) and how many samples lie strictly above it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	value = s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	for _, x := range s {
		if x > value {
			beyond++
		}
	}
	return value, beyond
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// tailLadder is the set of percentiles a tail is reported at, each
// given as the share of samples beyond it, in per mille: p99.9, p99,
// p95, p90, p75 and p50.
var tailLadder = []int{1, 10, 50, 100, 250, 500}

// tailPercentile is the highest ladder percentile that leaves at least
// ten of n samples beyond it. The benchmark calls it with the smallest
// sample count a run can have, so one workload always reports the same
// percentile whatever the machine's speed.
func tailPercentile(n int) float64 {
	for _, pm := range tailLadder {
		if n*pm >= 10*1000 {
			return 100 - float64(pm)/10
		}
	}
	return 50
}
