// Package faults injects failures into the planning service on purpose:
// request-level latency, errors, and panics via an http.Handler
// middleware, and compute-level stalls, errors, and panics via a hook the
// planner runs at its solve checkpoints. Every decision comes from one
// seeded deterministic stream, so a chaos run is reproducible — the same
// seed and the same arrival order fail the same requests.
//
// Injected failures are marked in-band, and only in-band: middleware 503s
// carry the X-Suu-Injected header, and compute errors are typed
// (InjectedError) so the serving layer can mirror the same header onto the
// 500 it writes. A load harness must classify on that header alone — body
// text is not a marker, and an organic failure whose message happens to
// contain the word "injected" counts as organic. Injected panics are
// indistinguishable from real ones by design — that is the point of
// injecting them: middleware panics kill the connection (the client sees a
// retryable transport error), compute panics exercise the planner's panic
// isolation and surface as unmarked 500s.
package faults

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Header marks an injected failure response.
const Header = "X-Suu-Injected"

// InjectedError is the typed error injected compute failures return. It
// travels the planner's error path like any compute error, and the HTTP
// layer recognizes it by its InjectedFault method (a marker interface, so
// the serving path never imports the chaos tooling) and mirrors Header
// onto the 5xx it writes.
type InjectedError struct{ Cause string }

func (e *InjectedError) Error() string { return "injected fault: " + e.Cause }

// InjectedFault marks the error as deliberately injected.
func (e *InjectedError) InjectedFault() bool { return true }

// Config sets per-decision probabilities (0..1) and magnitudes. The zero
// value injects nothing.
type Config struct {
	// Seed makes the fault stream deterministic; 0 means seed 1.
	Seed int64

	// HTTP middleware faults, applied per request in this order: latency,
	// then error, then panic.
	LatencyP   float64       // probability of injected latency
	Latency    time.Duration // injected latency magnitude (uniform 0.5×..1.5×)
	ErrorP     float64       // probability of an injected 503
	PanicP     float64       // probability of an injected handler panic
	HTTPMethod string        // if set, only requests with this method are faulted (POST keeps probes clean)
	// HTTPPathPrefix, if set, faults only requests under this path — the
	// peer-fault mode: scope an injector to /v1/store/ and only the
	// replication traffic suffers while client traffic stays clean.
	HTTPPathPrefix string

	// Compute-hook faults, applied per planner checkpoint.
	StallP       float64       // probability of an injected slow-solve stall
	Stall        time.Duration // stall magnitude (uniform 0.5×..1.5×)
	ComputeErrP  float64       // probability of an injected compute error
	ComputePanic float64       // probability of an injected compute panic
}

// Injector is a seeded fault source. All methods are safe for concurrent
// use; the stream is a single SplitMix64 behind a mutex, so concurrency
// changes interleaving but never the marginal rates.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	state uint64

	latencies     atomic.Uint64
	httpErrors    atomic.Uint64
	httpPanics    atomic.Uint64
	stalls        atomic.Uint64
	computeErrors atomic.Uint64
	computePanics atomic.Uint64
}

// Snapshot is the injector's ledger: what it actually did, for reconciling
// a chaos run's client-side error counts.
type Snapshot struct {
	Latencies     uint64 `json:"latencies"`
	HTTPErrors    uint64 `json:"http_errors"`
	HTTPPanics    uint64 `json:"http_panics"`
	Stalls        uint64 `json:"stalls"`
	ComputeErrors uint64 `json:"compute_errors"`
	ComputePanics uint64 `json:"compute_panics"`
}

// New builds an injector. A nil return means cfg injects nothing — callers
// can wire it unconditionally and pay nothing when chaos is off.
func New(cfg Config) *Injector {
	if cfg.LatencyP <= 0 && cfg.ErrorP <= 0 && cfg.PanicP <= 0 &&
		cfg.StallP <= 0 && cfg.ComputeErrP <= 0 && cfg.ComputePanic <= 0 {
		return nil
	}
	seed := uint64(cfg.Seed)
	if seed == 0 {
		seed = 1
	}
	return &Injector{cfg: cfg, state: seed}
}

// next is SplitMix64: tiny, seedable, and plenty for Bernoulli draws.
func (in *Injector) next() uint64 {
	in.mu.Lock()
	in.state += rng.Golden
	z := in.state
	in.mu.Unlock()
	return rng.Mix64(z)
}

// roll draws a Bernoulli(p).
func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(in.next()>>11)/(1<<53) < p
}

// jitter returns a duration uniform in [0.5×d, 1.5×d].
func (in *Injector) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	u := float64(in.next()>>11) / (1 << 53)
	return time.Duration((0.5 + u) * float64(d))
}

// Wrap is the chaos middleware: latency, then error, then panic, each by
// its own draw. A nil injector returns next unchanged.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	if in == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in.cfg.HTTPMethod != "" && r.Method != in.cfg.HTTPMethod {
			next.ServeHTTP(w, r)
			return
		}
		if in.cfg.HTTPPathPrefix != "" && !strings.HasPrefix(r.URL.Path, in.cfg.HTTPPathPrefix) {
			next.ServeHTTP(w, r)
			return
		}
		if in.roll(in.cfg.LatencyP) {
			in.latencies.Add(1)
			time.Sleep(in.jitter(in.cfg.Latency))
		}
		if in.roll(in.cfg.ErrorP) {
			in.httpErrors.Add(1)
			w.Header().Set(Header, "error")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error": "injected fault: unavailable"}`)
			return
		}
		if in.roll(in.cfg.PanicP) {
			in.httpPanics.Add(1)
			// net/http recovers handler panics per connection but the
			// response dies with it: the client sees a closed/reset
			// connection, the canonical retryable transport failure.
			panic("injected fault: handler panic")
		}
		next.ServeHTTP(w, r)
	})
}

// ComputeHook returns the planner checkpoint hook: stall, then error, then
// panic. A nil injector returns nil so the planner pays no call.
func (in *Injector) ComputeHook() func() error {
	if in == nil {
		return nil
	}
	return func() error {
		if in.roll(in.cfg.StallP) {
			in.stalls.Add(1)
			time.Sleep(in.jitter(in.cfg.Stall))
		}
		if in.roll(in.cfg.ComputeErrP) {
			in.computeErrors.Add(1)
			return &InjectedError{Cause: "compute error"}
		}
		if in.roll(in.cfg.ComputePanic) {
			in.computePanics.Add(1)
			panic("injected fault: compute panic")
		}
		return nil
	}
}

// Snapshot reads the ledger. Safe on a nil injector (all zeros).
func (in *Injector) Snapshot() Snapshot {
	if in == nil {
		return Snapshot{}
	}
	return Snapshot{
		Latencies:     in.latencies.Load(),
		HTTPErrors:    in.httpErrors.Load(),
		HTTPPanics:    in.httpPanics.Load(),
		Stalls:        in.stalls.Load(),
		ComputeErrors: in.computeErrors.Load(),
		ComputePanics: in.computePanics.Load(),
	}
}
