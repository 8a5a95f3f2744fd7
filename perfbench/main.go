// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself: perfbench/run.sh builds cmd/suud and this driver, then
// runs
//
//	perfbench -suud <bin> -workdir <dir> -workload batch-mixed -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it starts a fresh suud per setup (GOMAXPROCS=1, disk store
// on a fresh directory, tracing off), primes it serially, drives it over
// loopback from this process (GOMAXPROCS=1, two connections) at the
// workload's fixed open-loop rate, measures the peak in a closed loop, and
// computes plan quality on a fixed verification set. With -trace 1 it
// replays the same request sequences in-process and times the calls into
// each layer (see layers.go), then drives a live suud with every request
// traced and one without. While it measures, a keeper process keeps the
// CPUs out of idle (see awake.go); a run fails if the keeper ends early.
// Every response is checked. The last line of standard output is the JSON
// result; the line before it is provenance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	def      *workloadDef
	seed     int64
	seconds  int
	keeper   *keeper
	suudBin  string
	workdir  string
	notes    map[string]any // provenance extras: sample counts, host steal
	failures []string       // first few failed operations, for stderr
}

func (c *config) note(k string, v any) { c.notes[k] = v }

func main() {
	if len(os.Args) == 2 && os.Args[1] == keepAwakeFlag {
		keepAwake()
		return
	}
	os.Exit(run())
}

// run is main's body; it returns the exit code once every process it
// started has ended.
func run() int {
	var (
		wl      = flag.String("workload", "", "workload: batch-mixed or estimate")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "measured seconds per run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		bin     = flag.String("suud", "", "suud binary")
		workdir = flag.String("workdir", "", "directory for suud stores and scratch")
	)
	flag.Parse()
	runtime.GOMAXPROCS(1)
	def := workloads[*wl]
	if def == nil || *bin == "" || *workdir == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments %q\n", os.Args[1:])
		return 2
	}
	cfg := &config{def: def, seed: *seed, seconds: *seconds, suudBin: *bin, workdir: *workdir, notes: map[string]any{}}
	var res *result
	k, err := startKeeper()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer k.stop()
	cfg.keeper = k
	switch {
	case *traced == 1:
		res, err = runLayers(cfg)
	default:
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range cfg.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	if rss, err := peakRSS("self"); err == nil {
		cfg.note("gen_rss_peak_mb", rss)
	}
	prov, err := json.Marshal(map[string]any{"provenance": provenance(cfg, *traced)})
	if err == nil {
		var line []byte
		// A non-finite metric (a failed window request makes lat_p50_ms
		// infinite) cannot be encoded; the run fails instead.
		if line, err = json.Marshal(res); err == nil {
			_, err = fmt.Printf("%s\n%s\n", prov, line)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reporting:", err)
		return 1
	}
	return 0
}

// finite returns x, or nil (JSON null) for an infinity or NaN.
func finite(x float64) any {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return nil
	}
	return x
}

// provenance records what a later reader needs to tell which results are
// comparable.
func provenance(cfg *config, traced int) map[string]any {
	p := map[string]any{
		"argv":             os.Args,
		"workload":         cfg.def.name,
		"seed":             cfg.seed,
		"seconds":          cfg.seconds,
		"trace":            traced,
		"rate_rps":         cfg.def.rate,
		"latency_limit_ms": float64(cfg.def.limit.Microseconds()) / 1000,
		"gomaxprocs_suud":  1,
		"gomaxprocs_gen":   runtime.GOMAXPROCS(0),
		"num_cpu":          runtime.NumCPU(),
		"cpu_model":        cpuModel(),
		"go_version":       runtime.Version(),
		"vcs.revision":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if strings.HasPrefix(s.Key, "vcs.") {
				p[s.Key] = s.Value
			}
		}
	}
	keys := make([]string, 0, len(cfg.notes))
	for k := range cfg.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p[k] = cfg.notes[k]
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
