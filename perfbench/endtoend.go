package main

import (
	"cmp"
	"context"
	"errors"
	"math"
	"net/http"
	"slices"
	"time"
)

// Layout of an end-to-end run of S seconds: the fixed-rate window takes
// windowShare of S and the closed-loop peak phase saturateShare.
const (
	setupRepeats  = 5 // fresh suud starts per run; setup_s is their median
	windowShare   = 0.6
	saturateShare = 0.3
	// peak_items_s is measured over the least stolen half of peakBins
	// equal parts of the closed-loop phase (see saturate).
	peakBins = 10
	// exactSamples is how many window estimates are recomputed in-process
	// and compared bit for bit.
	exactSamples = 16
)

// tally counts attempted and failed operations and keeps the first few
// failures for the diagnostic summary on stderr.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < 5 {
			t.failures = append(t.failures, err.Error())
		}
	}
}

// sendSerial posts reqs one after another, checking every response.
func sendSerial(def *workloadDef, hc *http.Client, base string, reqs []request, t *tally) [][]byte {
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		status, body, _, err := post(context.Background(), hc, base+def.path, req.body)
		if err == nil {
			err = verify(def, req, status, body)
		}
		t.add(err)
		bodies[i] = body
	}
	return bodies
}

// setup execs a fresh suud and primes it serially. The returned duration
// runs from exec to the last priming response.
func setup(cfg *config, prime []request, traced bool, t *tally) (*suud, *http.Client, time.Duration, error) {
	srv, err := startSuud(cfg.suudBin, cfg.workdir, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	hc := newClient()
	sendSerial(cfg.def, hc, srv.base, prime, t)
	return srv, hc, time.Since(srv.exec), nil
}

// stopAll closes the client's connections and stops the server.
func stopAll(srv *suud, hc *http.Client) error {
	hc.CloseIdleConnections()
	return srv.stop()
}

func runEndToEnd(cfg *config) (*result, error) {
	def := cfg.def
	s, err := newSuite(def, cfg.seed)
	if err != nil {
		return nil, err
	}
	run := time.Duration(cfg.seconds) * time.Second
	window := time.Duration(float64(run) * windowShare)
	sat := time.Duration(float64(run) * saturateShare)
	reqs, err := s.phase(phaseWindow, def.rate, window)
	if err != nil {
		return nil, err
	}
	prime := s.serial(phasePrime)
	t := &tally{}

	setups := make([]float64, 0, setupRepeats)
	var srv *suud
	var hc *http.Client
	for k := 0; k < setupRepeats; k++ {
		var d time.Duration
		if srv, hc, d, err = setup(cfg, prime, false, t); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if k < setupRepeats-1 {
			if err := stopAll(srv, hc); err != nil {
				return nil, err
			}
		}
	}
	defer stopAll(srv, hc)
	cfg.note("setup_s_all", setups)

	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	host0 := cpuStat()
	win, err := runPhase(hc, srv.base+def.path, reqs, window)
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	cfg.note("window_host_steal_share", stealShare(host0, cpuStat()))
	if err := cfg.keeper.check(); err != nil {
		return nil, err
	}
	cfg.note("keeper_alive", true)
	// The closed-loop phase that follows does as much work as the host
	// lets it, so the memory peak is taken after the fixed window.
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	win.check(def, t)
	if def.path == "/v1/estimate" {
		checkExactSample(win, t)
	}
	// lat_p50_ms is the Harrell–Davis median of the requests due in the
	// least stolen half of the window (see quietLatenciesMS): how often
	// the hypervisor takes the CPUs away moves from minute to minute on a
	// shared host, and a median taken over the whole window measures that
	// too. The tail quantiles, which measure it even in the quiet half, are
	// recorded in provenance only.
	lat, quiet := win.latenciesMS(), win.quietLatenciesMS()
	p50 := hdQuantile(quiet, 0.5)
	done := 0
	for i := range win.out {
		if win.out[i].ok() {
			done++
		}
	}
	cfg.note("window_requests", len(reqs))
	cfg.note("window_quiet_requests", len(quiet))
	cfg.note("window_slot_steal", win.steal)
	cfg.note("window_all_p50_ms", finite(hdQuantile(lat, 0.5)))
	cfg.note("window_all_p95_ms", finite(hdQuantile(lat, 0.95)))
	cfg.note("window_all_p99_ms", finite(hdQuantile(lat, 0.99)))
	cfg.note("window_quiet_p95_ms", finite(hdQuantile(quiet, 0.95)))
	cfg.note("gen_late_p99_ms", quantile(win.lateMS(), 0.99))

	peak, err := saturate(cfg, s, hc, srv.base+def.path, p50, sat, t)
	if err != nil {
		return nil, err
	}

	vreqs := s.serial(phaseVerify)
	failedBefore := t.failed
	bodies := sendSerial(def, hc, srv.base, vreqs, t)
	quality := 0.0
	if t.failed == failedBefore {
		quality, err = qualityOf(def, vreqs, bodies)
		t.add(err)
	}
	if done == 0 {
		return nil, errors.New("no window request completed")
	}
	cfg.failures = t.failures

	items := float64(def.items)
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setups), "s"},
			"lat_p50_ms":      {p50, "ms"},
			"peak_items_s":    {peak * items, "items/s"},
			"cpu_ms_per_item": {msOf(cpu1-cpu0) / (float64(done) * items), "ms"},
			"rss_peak_mb":     {rss, "MB"},
			"quality_ratio":   {quality, "ratio"},
		},
	}, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkExactSample recomputes exactSamples of the window's estimates
// in-process and requires the served summaries bit for bit.
func checkExactSample(r *phaseResult, t *tally) {
	step := max(1, len(r.out)/exactSamples)
	for i := 0; i < len(r.out); i += step {
		if !r.out[i].ok() {
			continue
		}
		e, err := decodeEstimate(r.bodies[r.out[i].hash])
		if err == nil {
			err = estimateExact(e, r.reqs[i].items[0])
		}
		t.add(err)
	}
}

// saturate measures the peak: it sends requests back to back on every
// connection for dur, so suud always has the generator's whole window of
// requests and the backlog cannot grow, and returns the completion rate,
// in requests/s, over the least stolen half of peakBins equal parts of
// dur (by the host's steal share in each part, as in quietLatenciesMS).
// Each part is supplied with requests of its own, so only one part's
// bodies are held at a time. The peak holds only if every request
// succeeded and the p99, from send to last byte, of the requests of those
// parts is within the workload's limit; otherwise it is 0. p50 is the
// window's median latency in ms; a part's supply lasts if requests
// complete twice as fast.
//
// An open-loop search of a rate ladder for the highest rate that holds
// decides each rung on the tail of a few seconds of traffic near
// saturation, where a shared host's scheduling noise moves it by whole
// octaves from run to run; the completion rate of a closed loop is an
// average and moves only with the CPU time the host gives.
func saturate(cfg *config, s *suite, hc *http.Client, url string, p50 float64, dur time.Duration, t *tally) (float64, error) {
	def := cfg.def
	part := dur / peakBins
	failed := t.failed
	type partResult struct {
		steal   float64
		elapsed time.Duration
		lat     []float64
	}
	parts := make([]partResult, 0, peakBins)
	sent := 0
	for k := 0; k < peakBins; k++ {
		reqs, err := s.phase(phaseSaturate+int64(k), 2*conns*1000/p50, part)
		if err != nil {
			return 0, err
		}
		for i := range reqs {
			reqs[i].due = 0
		}
		host0, start := cpuStat(), time.Now()
		r, err := runPhase(hc, url, reqs, part)
		if err != nil {
			return 0, err
		}
		p := partResult{elapsed: time.Since(start), steal: stealShare(host0, cpuStat())}
		// Requests are taken in order, so the ones sent before the part
		// ran out are a prefix.
		n := 0
		for n < len(r.out) && r.out[n].sent {
			n++
		}
		if n == len(reqs) {
			return 0, errors.New("closed-loop phase ran out of requests")
		}
		r.reqs, r.out = r.reqs[:n], r.out[:n]
		r.check(def, t)
		for i := range r.out {
			l := math.Inf(1)
			if o := &r.out[i]; o.ok() {
				l = msOf(o.lat - o.sendAt)
			}
			p.lat = append(p.lat, l)
		}
		parts = append(parts, p)
		sent += n
	}
	slices.SortStableFunc(parts, func(a, b partResult) int { return cmp.Compare(a.steal, b.steal) })
	var lat []float64
	var elapsed time.Duration
	for _, p := range parts[:(len(parts)+1)/2] {
		lat = append(lat, p.lat...)
		elapsed += p.elapsed
	}
	p99 := hdQuantile(lat, 0.99)
	cfg.note("closed_loop_rps", float64(sent)/dur.Seconds())
	cfg.note("closed_loop_p99_ms", finite(p99))
	if t.failed > failed || p99 > msOf(def.limit) {
		return 0, nil
	}
	return float64(len(lat)) / elapsed.Seconds(), nil
}
