package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// sequence renders everything a seed decides for a workload: the timed
// window's arrivals and bodies, the priming and the verification set.
func sequence(t *testing.T, def *workloadDef, seed int64) []byte {
	t.Helper()
	s, err := newSuite(def, seed)
	if err != nil {
		t.Fatal(err)
	}
	window, err := s.phase(phaseWindow, def.rate, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, set := range [][]request{window, s.serial(phasePrime), s.serial(phaseVerify)} {
		for _, r := range set {
			fmt.Fprintf(&b, "%d %s\n", r.due, r.body)
		}
		b.WriteString("--\n")
	}
	return b.Bytes()
}

func TestSequenceDeterministic(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			a, b := sequence(t, def, 7), sequence(t, def, 7)
			if !bytes.Equal(a, b) {
				t.Fatal("seed 7 produced two different request sequences")
			}
			if bytes.Equal(a, sequence(t, def, 8)) {
				t.Fatal("seeds 7 and 8 produced the same request sequence")
			}
		})
	}
}

// TestFreshNeverRepeats checks that batch-mixed's fresh instances are
// distinct across the window, the closed-loop phase and the traced run.
func TestFreshNeverRepeats(t *testing.T) {
	s, err := newSuite(workloads["batch-mixed"], 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, phase := range []int64{phaseWindow, phaseSaturate, phaseTraced} {
		reqs, err := s.phase(phase, 12, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			for _, it := range r.items[batchHits:] {
				if fp := it.fp.String(); seen[fp] {
					t.Fatalf("fresh instance %s repeated", fp)
				} else {
					seen[fp] = true
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the workload table in step:
// every workload it names is defined and records its fixed rate and
// latency limit.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		def := workloads[w.Name]
		if def == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for _, want := range []string{
			fmt.Sprintf("%g req/s", def.rate),
			fmt.Sprintf("p99 limit %d ms", def.limit.Milliseconds()),
		} {
			if !strings.Contains(w.Why, want) {
				t.Errorf("%s: why %q does not record %q", w.Name, w.Why, want)
			}
		}
	}
	var metrics []string
	for _, m := range b.EndToEnd {
		metrics = append(metrics, m.Name)
	}
	sort.Strings(metrics)
	want := []string{"cpu_ms_per_item", "lat_p50_ms", "peak_items_s", "quality_ratio", "rss_peak_mb", "setup_s"}
	if fmt.Sprint(metrics) != fmt.Sprint(want) {
		t.Errorf("end_to_end metrics %v, want %v", metrics, want)
	}
}

// quietPhase builds a window of n requests at rate per second, each
// answered in 10 ms except every stallEvery-th (if nonzero), which takes
// 200 ms. Slot k's steal share is k%2 * 0.3: the odd slots are stolen.
func quietPhase(n int, rate float64, stallEvery int) *phaseResult {
	r := &phaseResult{reqs: make([]request, n), out: make([]outcome, n)}
	for i := range r.reqs {
		r.reqs[i].due = time.Duration(float64(i) / rate * float64(time.Second))
		lat := 10 * time.Millisecond
		if stallEvery > 0 && i%stallEvery == 0 {
			lat = 200 * time.Millisecond
		}
		r.out[i] = outcome{sent: true, status: http.StatusOK, lat: lat}
	}
	for k := 0; k <= r.slot(n-1); k++ {
		r.steal = append(r.steal, float64(k%2)*0.3)
	}
	return r
}

// TestQuietLatencies checks, at the window sizes the workloads run
// (300 batches at 10/s, 750 estimates at 25/s), that the quiet half of a
// window is chosen by steal alone: it holds the requests of the least
// stolen slots, and a stall of one request in 19 moves its p99 as much
// as the whole window's.
func TestQuietLatencies(t *testing.T) {
	for _, c := range []struct {
		n    int
		rate float64
	}{{300, 10}, {750, 25}} {
		r := quietPhase(c.n, c.rate, 0)
		if got, want := len(r.quietLatenciesMS()), c.n/2; got != want {
			t.Errorf("n=%d: %d quiet requests, want the %d of the even slots", c.n, got, want)
		}
		r = quietPhase(c.n, c.rate, 19)
		quiet, all := hdQuantile(r.quietLatenciesMS(), 0.99), hdQuantile(r.latenciesMS(), 0.99)
		if quiet < 150 || all < 150 {
			t.Errorf("n=%d: stalls of 1 in 19 give p99 %.1f ms (quiet half), %.1f ms (window); want both near 200", c.n, quiet, all)
		}
		if got := hdQuantile(r.quietLatenciesMS(), 0.5); math.Abs(got-10) > 1e-9 {
			t.Errorf("n=%d: quiet p50 %v, want 10", c.n, got)
		}
		r.out[c.n-1].sent = false // in a stolen slot: it still counts
		if got := hdQuantile(r.quietLatenciesMS(), 0.5); !math.IsInf(got, 1) {
			t.Errorf("n=%d: quiet p50 with an unsent request = %v, want +Inf", c.n, got)
		}
	}
}

func TestHDQuantile(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-50) > 1e-9 {
		t.Errorf("HD median of 0..100 = %v, want 50", got)
	}
	if got := hdQuantile(xs, 0.99); got < 97 || got > 100 {
		t.Errorf("HD p99 of 0..100 = %v, want within the top few values", got)
	}
	for _, c := range [][3]float64{{2, 3, 0.4}, {0.5, 0.5, 0.3}, {55.4, 0.6, 0.99}} {
		// I_x(a,b) + I_(1-x)(b,a) = 1.
		if s := regIncBeta(c[0], c[1], c[2]) + regIncBeta(c[1], c[0], 1-c[2]); math.Abs(s-1) > 1e-12 {
			t.Errorf("I_x(%v,%v) symmetry: sum %v", c[0], c[1], s)
		}
	}
	if got := regIncBeta(2, 3, 0.4); math.Abs(got-0.5248) > 1e-12 {
		t.Errorf("I_0.4(2,3) = %v, want 0.5248", got)
	}
	if got := hdQuantile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("HD p99 with a failed request = %v, want +Inf", got)
	}
}
