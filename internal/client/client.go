// Package client is the resilient HTTP client for the suud planning
// service, shared by suuload and the examples. It retries exactly the
// failures that are safe and useful to retry — transport/connection
// errors and 429/503 responses (planning is idempotent and those statuses
// mean "try again later") — with capped exponential backoff under full
// jitter, honoring the server's Retry-After when it is larger. 4xx and
// plain 5xx never retry: the former will fail identically, the latter is
// an organic server bug the caller should see. A per-target circuit
// breaker trips after consecutive failures and admits a single half-open
// probe per cooldown, so a dead or drowning target costs a fast error
// instead of a connect timeout per request.
//
// Each attempt carries X-Suu-Attempt (1-based), which the server meters
// as retries_observed — the two ends of a chaos run reconcile through it.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/internal/trace"
)

// AttemptHeader is the 1-based attempt number each request carries.
const AttemptHeader = "X-Suu-Attempt"

// InjectedHeader marks a server response produced by fault injection
// (mirrors faults.Header without importing it: the client must not depend
// on the chaos tooling).
const InjectedHeader = "X-Suu-Injected"

// ErrBreakerOpen fails a call fast because the target's breaker is open.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// Config tunes the client. Zero values take the documented defaults.
type Config struct {
	// MaxAttempts bounds total tries per call, first included (default 3;
	// 1 disables retries).
	MaxAttempts int
	// AttemptTimeout bounds each try (default 10s). The call's ctx still
	// bounds the whole call, retries and backoff included.
	AttemptTimeout time.Duration
	// BaseBackoff seeds the exponential schedule: try k backs off uniform
	// in [0, min(MaxBackoff, BaseBackoff·2^(k-1))] — full jitter (default
	// 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps one backoff sleep (default 2s).
	MaxBackoff time.Duration
	// Seed makes the jitter stream deterministic; 0 means seed 1.
	Seed int64
	// BreakerThreshold trips a target's breaker after this many
	// consecutive failed calls (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// one half-open probe (default 1s).
	BreakerCooldown time.Duration
	// Transport overrides the underlying RoundTripper (tests; default
	// http.DefaultTransport).
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	return c
}

// Result is one call's outcome: the final attempt's response (any status)
// plus the retry ledger the load harness reconciles.
type Result struct {
	Status   int
	Header   http.Header
	Body     []byte
	Attempts int  // tries consumed, ≥ 1
	Injected bool // final response carried X-Suu-Injected
	// Trace is the raw X-Suu-Trace value of the final response, "" when
	// the server did not keep the trace. Parse with trace.ParseHeader to
	// attribute this call's latency to server stages.
	Trace string
}

// Metrics is the client's cumulative ledger.
type Metrics struct {
	Calls            uint64 `json:"calls"`
	Retries          uint64 `json:"retries"` // attempts beyond each call's first
	ConnErrors       uint64 `json:"conn_errors"`
	RetryAfterWaits  uint64 `json:"retry_after_waits"` // backoffs stretched by a Retry-After header
	BreakerOpens     uint64 `json:"breaker_opens"`     // closed/half-open → open transitions
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
}

// Client is safe for concurrent use.
type Client struct {
	cfg  Config
	http *http.Client

	mu       sync.Mutex
	rng      uint64
	breakers map[string]*breaker

	calls            atomic.Uint64
	retries          atomic.Uint64
	connErrors       atomic.Uint64
	retryAfterWaits  atomic.Uint64
	breakerOpens     atomic.Uint64
	breakerFastFails atomic.Uint64

	// now is stubbed by breaker tests.
	now func() time.Time
}

// New builds a client.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	seed := uint64(cfg.Seed)
	if seed == 0 {
		seed = 1
	}
	return &Client{
		cfg: cfg,
		// No Client.Timeout: the per-attempt context carries the bound, so
		// one slow attempt cannot eat the whole call's budget bookkeeping.
		http:     &http.Client{Transport: cfg.Transport},
		rng:      seed,
		breakers: make(map[string]*breaker),
		now:      time.Now,
	}
}

// Snapshot reads the ledger.
func (c *Client) Snapshot() Metrics {
	return Metrics{
		Calls:            c.calls.Load(),
		Retries:          c.retries.Load(),
		ConnErrors:       c.connErrors.Load(),
		RetryAfterWaits:  c.retryAfterWaits.Load(),
		BreakerOpens:     c.breakerOpens.Load(),
		BreakerFastFails: c.breakerFastFails.Load(),
	}
}

// next is SplitMix64 under the client's mutex.
func (c *Client) next() uint64 {
	c.mu.Lock()
	c.rng += rng.Golden
	z := c.rng
	c.mu.Unlock()
	return rng.Mix64(z)
}

// backoff is the sleep before try k (k ≥ 2): full jitter over the capped
// exponential ceiling, stretched to honor retryAfter when the server asked
// for more patience than the schedule would give.
func (c *Client) backoff(k int, retryAfter time.Duration) time.Duration {
	ceil := c.cfg.BaseBackoff << uint(k-2)
	if ceil > c.cfg.MaxBackoff || ceil <= 0 {
		ceil = c.cfg.MaxBackoff
	}
	u := float64(c.next()>>11) / (1 << 53)
	d := time.Duration(u * float64(ceil))
	if retryAfter > d {
		c.retryAfterWaits.Add(1)
		d = retryAfter
	}
	return d
}

// retryAfterOf parses a delay-seconds Retry-After (the only form suud
// emits); absent or HTTP-date forms yield 0.
func retryAfterOf(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	s, err := strconv.Atoi(v)
	if err != nil || s < 0 {
		return 0
	}
	return time.Duration(s) * time.Second
}

// retryableStatus reports whether a status is worth retrying: 429 (shed
// load) and 503 (unavailable/draining). Other statuses — including plain
// 500s — surface to the caller.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// Do POSTs body (JSON) to rawURL, retrying per the package contract. The
// returned Result holds the final attempt's response whatever its status;
// err is non-nil only when no response was obtained at all (every attempt
// hit a transport error, the breaker was open, or ctx expired).
func (c *Client) Do(ctx context.Context, rawURL string, body []byte) (*Result, error) {
	c.calls.Add(1)
	target, err := targetOf(rawURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad url: %w", err)
	}
	br := c.breakerFor(target)
	var lastErr error
	res := &Result{}
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			wait := c.backoff(attempt, retryAfterOf(res.Header))
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if !br.allow(c) {
			c.breakerFastFails.Add(1)
			lastErr = fmt.Errorf("%w: %s", ErrBreakerOpen, target)
			// An open breaker fails the call, not the attempt loop: the
			// cooldown is longer than any backoff would be.
			return nil, lastErr
		}
		res.Attempts = attempt
		status, header, respBody, err := c.attempt(ctx, rawURL, body, attempt)
		if err != nil {
			c.connErrors.Add(1)
			br.failure(c)
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			res.Header = nil // no Retry-After to honor next round
			continue
		}
		res.Status, res.Header, res.Body = status, header, respBody
		res.Injected = header.Get(InjectedHeader) != ""
		res.Trace = header.Get(trace.ResponseHeader)
		if retryableStatus(status) {
			br.failure(c)
			lastErr = fmt.Errorf("client: status %d from %s", status, target)
			continue
		}
		br.success()
		return res, nil
	}
	if res.Status != 0 {
		// Out of attempts but holding a (retryable-status) response: give
		// the caller the response, not an error — it says 429/503 itself.
		return res, nil
	}
	return nil, lastErr
}

// attempt runs one try under its own timeout.
func (c *Client) attempt(ctx context.Context, rawURL string, body []byte, attempt int) (int, http.Header, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, rawURL, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(AttemptHeader, strconv.Itoa(attempt))
	// A caller already inside a traced request (a peer fetch, a relay)
	// propagates its trace ID so the fleet's logs and rings join up.
	if id := trace.IDFromContext(ctx); !id.IsZero() {
		req.Header.Set(trace.IDHeader, id.String())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		// A response whose body dies mid-read is a transport failure: the
		// caller cannot use a truncated JSON document.
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, b, nil
}

func targetOf(rawURL string) (string, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return "", err
	}
	if u.Host == "" {
		return "", fmt.Errorf("url %q has no host", rawURL)
	}
	return u.Host, nil
}

// breaker is a per-target circuit breaker: closed until BreakerThreshold
// consecutive failures, then open for BreakerCooldown, then half-open —
// one probe allowed; its success closes the breaker, its failure reopens.
type breaker struct {
	mu       sync.Mutex
	fails    int
	state    int // 0 closed, 1 open, 2 half-open (probe out)
	openedAt time.Time
}

func (c *Client) breakerFor(target string) *breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.breakers[target]
	if !ok {
		b = &breaker{}
		c.breakers[target] = b
	}
	return b
}

func (b *breaker) allow(c *Client) bool {
	if c.cfg.BreakerThreshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case 0:
		return true
	case 1:
		if c.now().Sub(b.openedAt) >= c.cfg.BreakerCooldown {
			b.state = 2 // this caller is the half-open probe
			return true
		}
		return false
	default: // half-open with a probe already out
		return false
	}
}

func (b *breaker) failure(c *Client) {
	if c.cfg.BreakerThreshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == 2 || (b.state == 0 && b.fails >= c.cfg.BreakerThreshold) {
		b.state = 1
		b.openedAt = c.now()
		c.breakerOpens.Add(1)
	}
}

func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.state = 0
	b.mu.Unlock()
}
