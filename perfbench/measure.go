package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// samples is a list of latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile is the nearest-rank q-quantile (0 for an empty list); q = 0
// is the minimum.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

func (s samples) median() float64 { return s.quantile(0.5) }

// tail returns the highest of p99.9/p99/p95/p90/p75 that has at least ten
// samples beyond it, and that percentile. With fewer than 40 samples no
// such percentile exists and the maximum is returned as p100.
func (s samples) tail() (value, pct float64) {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(s))*(1-p/100) >= 10 {
			return s.quantile(p / 100), p
		}
	}
	return s.quantile(1), 100
}

// liveHeapMiB collects garbage and returns the live heap in MiB: the
// memory the workload's state holds at that point. The second collection
// empties the sync.Pool victim caches the first one leaves behind.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	return float64(m[0].Value.Uint64()) / (1 << 20)
}

// gcCounters snapshots the allocation and GC-pause totals.
type gcCounters struct{ allocBytes, pauseNs uint64 }

func readGC() gcCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcCounters{ms.TotalAlloc, ms.PauseTotalNs}
}

// since returns the MiB allocated and GC pause milliseconds since c.
func (c gcCounters) since() (allocMB, pauseMS float64) {
	now := readGC()
	return float64(now.allocBytes-c.allocBytes) / (1 << 20), float64(now.pauseNs-c.pauseNs) / 1e6
}

// provenance identifies the host and build a result was measured on.
type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Tiny       bool   `json:"tiny,omitempty"`
}

func hostProvenance() provenance {
	return provenance{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where it exists.
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

// buildCommit is the VCS revision stamped into the binary; builds made
// outside a git checkout carry none.
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// relErr is |a-b| relative to |b| (absolute below 1).
func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(b))
}
