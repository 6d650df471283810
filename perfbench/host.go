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
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo fingerprints the machine and the code under test, so that no
// number is compared across hosts or commits without it being visible.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

// fingerprint reads the host's identity. The commit is read from the git
// metadata under root when the checkout is a git work tree; the source
// hash covers every Go source and module file under root either way.
func fingerprint(root string) hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
	}
}

// gitCommit resolves root's .git/HEAD to a commit hash without running git,
// or returns "unknown" when root is not a git work tree.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests the path and bytes of every .go, go.mod and go.sum
// file under root, skipping dot-directories (build output lives there).
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just stays out of the hash
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// processCPU returns the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// stealTicks reads the host-wide CPU time stolen by the hypervisor and the
// total, in clock ticks, from /proc/stat; zeros where it is unavailable.
func stealTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// runtimeSample is a reading of the Go runtime's own counters.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	gcCycles        uint64
	schedLat        *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s runtimeSample
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU, s.totalCPU = ms[0].Value.Float64(), ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindUint64 {
		s.allocBytes, s.gcCycles = ms[2].Value.Uint64(), ms[3].Value.Uint64()
	}
	if ms[4].Value.Kind() == metrics.KindFloat64Histogram {
		s.schedLat = ms[4].Value.Float64Histogram()
	}
	return s
}

// runtimeDelta is what the runtime did between two readings.
type runtimeDelta struct {
	gcCPUFrac      float64
	allocBytes     uint64
	gcCycles       uint64
	schedLatP99Sec float64
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	d := runtimeDelta{allocBytes: b.allocBytes - a.allocBytes, gcCycles: b.gcCycles - a.gcCycles}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	if a.schedLat != nil && b.schedLat != nil && len(a.schedLat.Counts) == len(b.schedLat.Counts) {
		counts := make([]uint64, len(b.schedLat.Counts))
		var total uint64
		for i := range counts {
			counts[i] = b.schedLat.Counts[i] - a.schedLat.Counts[i]
			total += counts[i]
		}
		if total > 0 {
			// The upper edge of the bucket holding the 99th percentile.
			want := uint64(float64(total)*0.99 + 0.5)
			var seen uint64
			for i, c := range counts {
				seen += c
				if seen >= want {
					edge := b.schedLat.Buckets[i+1]
					if math.IsInf(edge, 1) {
						edge = b.schedLat.Buckets[i]
					}
					d.schedLatP99Sec = edge
					break
				}
			}
		}
	}
	return d
}
