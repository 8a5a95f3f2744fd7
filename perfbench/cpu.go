package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuStat returns the machine-wide CPU time counters of /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal), or nil.
func cpuStat() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	v := make([]int64, 8)
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return v
}

// stealShare is the share of CPU time the hypervisor took between two
// cpuStat readings: contention from outside the machine that slows every
// timing of the run. It is 1, the worst, if either reading is missing.
func stealShare(a, b []int64) float64 {
	if a == nil || b == nil {
		return 1
	}
	var total int64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 1
	}
	return float64(b[7]-a[7]) / float64(total)
}
