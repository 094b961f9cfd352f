package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics; 0 when xs is empty. xs is sorted in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// us converts durations to microseconds.
func us(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB is the Go heap the process still holds after a full
// collection, in MiB: the memory the running system keeps live. It
// collects twice, because sync.Pool contents survive the first collection
// in the pools' victim caches, and how much they hold depends on timing.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, falling
// back to the Go runtime's total obtained memory where /proc is missing.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// usage is the host-wide CPU accounting from /proc/stat, whose steal
// column is time the hypervisor gave the virtual CPUs to other guests.
// Where /proc/stat is unavailable its fields stay 0.
type usage struct {
	steal, total float64 // jiffies over all CPUs
}

func readUsage() usage {
	var u usage
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
			for i, v := range f[1:9] {
				x, _ := strconv.ParseFloat(v, 64)
				u.total += x
				if i == 7 {
					u.steal = x
				}
			}
		}
	}
	return u
}

func (u usage) sub(v usage) usage {
	return usage{steal: u.steal - v.steal, total: u.total - v.total}
}

// stealFrac is the share of all CPU time the host took away.
func (u usage) stealFrac() float64 { return ratio(u.steal, u.total) }

// timeSetups runs setup reps times, tearing the previous one down with undo
// before each further rep, and returns the median duration in seconds.
func timeSetups(reps int, setup, undo func() error) (float64, error) {
	var secs []float64
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			if err := undo(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}
