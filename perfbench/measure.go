package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// repResult is one timed pass of a workload: a fresh set-up, the fixed
// simulated span, and the correctness checks on what it produced.
type repResult struct {
	setup time.Duration
	wall  time.Duration
	mem   memDelta
	// digest summarizes the simulated outputs; it must repeat exactly
	// for every rep at one seed, traced or not.
	digest string
	// ops and failed count the rep's operations (a run, an experiment,
	// or a scrape) and those that failed, failed checks included.
	ops, failed int
	problems    []string
	// notes are remarks that are not failures (tracing fidelity).
	notes []string
	// srvHours is the simulated server-hours the span covers (0 where
	// the workload has no single fleet).
	srvHours float64
	// scrapeMS and lateMS are the serve workload's per-scrape latencies
	// (from each request's due time) and send delays, pooled across
	// reps before their percentiles are taken.
	scrapeMS, lateMS []float64
	// layers holds per-layer metrics; timings are filled only on traced
	// reps, counts on every rep.
	layers map[string]float64
	// workers is the shard-loop width the rep ran with.
	workers int
	// steal is the share of demanded CPU time the hypervisor withheld
	// during the rep (set by measure).
	steal float64
}

func (r *repResult) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// memDelta is what the Go runtime reports across a timed section.
type memDelta struct {
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint32
	gcCPU        float64
}

type memMark struct {
	ms    runtime.MemStats
	gcCPU float64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func markMem() memMark {
	var m memMark
	runtime.ReadMemStats(&m.ms)
	metrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = gcCPUSample[0].Value.Float64()
	}
	return m
}

func (a memMark) since() memDelta {
	b := markMem()
	return memDelta{
		allocBytes:   b.ms.TotalAlloc - a.ms.TotalAlloc,
		allocObjects: b.ms.Mallocs - a.ms.Mallocs,
		gcCycles:     b.ms.NumGC - a.ms.NumGC,
		gcCPU:        b.gcCPU - a.gcCPU,
	}
}

// cpuTicks are the host's cumulative busy and steal ticks over all CPUs
// (the "cpu" line of /proc/stat).
type cpuTicks struct{ busy, steal uint64 }

func readCPUTicks() cpuTicks {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]uint64 // user nice system idle iowait irq softirq steal
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}
}

// stealSince is the share of the CPU time demanded since a that the
// hypervisor withheld: steal ticks over busy ticks, steal included. It
// is 0 on a host that reports no steal.
func (a cpuTicks) stealSince() float64 {
	b := readCPUTicks()
	if b.busy <= a.busy {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

// peakRSSMB reports the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value of xs; NaN when empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is stats.Percentile with an empty sample reading NaN.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Percentile(xs, q)
	if err != nil {
		return math.NaN()
	}
	return v
}

// digest hashes a labelled list of simulated outputs. Floats are hashed
// by their bits, so any change in a result changes the digest.
type digest struct{ parts []string }

func (d *digest) add(name string, v float64) {
	d.parts = append(d.parts, fmt.Sprintf("%s=%x", name, math.Float64bits(v)))
}

func (d *digest) addInt(name string, v int64) {
	d.parts = append(d.parts, fmt.Sprintf("%s=%d", name, v))
}

func (d *digest) sum() string {
	h := sha256.New()
	for _, p := range d.parts {
		fmt.Fprintln(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
