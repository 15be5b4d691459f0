package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
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

// host is the fingerprint every result carries, so numbers from different
// machines or source trees are never compared by accident.
type host struct {
	CPU      string `json:"cpu"`
	NProc    int    `json:"nproc"`
	MemMB    int64  `json:"mem_mb"`
	Go       string `json:"go"`
	Commit   string `json:"commit"`
	Modified bool   `json:"modified,omitempty"`
	// Tree is a digest of the checkout's Go sources and go.mod files; it
	// identifies the code where no git metadata is available.
	Tree string `json:"tree"`
}

func fingerprint(root string) host {
	h := host{
		CPU:    procField("/proc/cpuinfo", "model name"),
		NProc:  runtime.NumCPU(),
		Go:     runtime.Version(),
		Commit: "unknown",
		Tree:   treeDigest(root),
	}
	if f := strings.Fields(procField("/proc/meminfo", "MemTotal")); len(f) > 0 {
		if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
			h.MemMB = kb / 1024
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// treeDigest hashes the path and content of every .go and go.mod file
// under root, skipping hidden directories (the build directory among
// them). The first 16 hex digits are enough to tell trees apart.
func treeDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	sum := sha256.New()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		io.WriteString(sum, rel+"\x00")
		if f, err := os.Open(path); err == nil {
			_, _ = io.Copy(sum, f)
			f.Close()
		}
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (ru_maxrss is
// in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
