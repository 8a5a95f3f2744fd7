// Package trace is the observability spine of the serving stack: a
// zero-allocation-in-steady-state per-request trace context, a leveled
// key=value logger, a bounded in-memory recorder behind /debug/traces,
// and an append-only CRC-framed binary trace log.
//
// A request entering the HTTP layer calls Tracer.Begin, which hands out
// a pooled *Ctx carrying a 128-bit trace ID and fixed-capacity per-stage
// accumulators (durations and counts indexed by Stage — aggregated, not
// an unbounded span list, so a 256-item batch costs the same as a single
// request). The Ctx is threaded through admission, the flight table, the
// store tiers, the LP engine, and the frame encoder; every *Ctx method is
// nil-safe, so library callers that never traced pay a nil check and
// nothing else.
//
// Keeping a trace is a head-based sampling decision (Config.Sample)
// overridden for requests that matter: errors, degraded fallbacks, and
// the slowest-N are always kept when the recorder is enabled. A kept
// trace lands in the ring buffer (served by /debug/traces), in the
// binary trace log if one is attached, and — when sampled or forced —
// in the X-Suu-Trace response header, which clients parse to attribute
// their observed latency to server stages.
//
// Computations may outlive the request that started them (detached
// singleflight leaders): Ctx is reference-counted, stage recording is
// mutex-guarded, and the Ctx returns to the pool only when the last
// holder releases it.
package trace

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Stage identifies one instrumented segment of a request's journey.
// Stages are aggregates, not spans: a batch that decodes 64 instances
// records StageDecode with count 64 and the summed duration.
type Stage uint8

const (
	// StageDecode is request-body and instance decoding (including
	// decode-cache hits) in the HTTP handler.
	StageDecode Stage = iota
	// StageQueue is time spent waiting for a worker slot under
	// admission control.
	StageQueue
	// StageFlight is time a coalesced follower spent waiting on the
	// singleflight leader's computation.
	StageFlight
	// StageStoreMem is durable-store memory-tier read time (hits).
	StageStoreMem
	// StageStoreDisk is durable-store disk-tier read time (hits).
	StageStoreDisk
	// StageStorePeer is durable-store peer-fetch read time (hits).
	StageStorePeer
	// StageStoreMiss is time spent probing every store tier and
	// finding nothing.
	StageStoreMiss
	// StageSolve is the LP solve + rounding workspace call (or a
	// Monte Carlo simulation chunk for estimates).
	StageSolve
	// StageRound is rounded-assignment serialization into the
	// response shape.
	StageRound
	// StageEncode is canonical-frame JSON encoding (cold encodes
	// only; spliced cache hits never re-encode).
	StageEncode
	// StageDegrade is the LP-free greedy fallback computation under
	// brownout.
	StageDegrade

	// NumStages is the size of per-stage arrays.
	NumStages = int(StageDegrade) + 1
)

var stageNames = [NumStages]string{
	"decode", "queue", "flight",
	"store.mem", "store.disk", "store.peer", "store.miss",
	"solve", "round", "encode", "degrade",
}

// String returns the canonical stage name used in /metrics, the
// X-Suu-Trace header, /debug/traces, and the binary trace log.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "stage(" + strconv.Itoa(int(s)) + ")"
}

// StageNames returns the canonical names in stage-index order.
func StageNames() [NumStages]string { return stageNames }

// StageByName maps a canonical name back to its Stage.
func StageByName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Outcome and source labels shared by the header, the recorder, and the
// binary log. Sources mirror the batch envelope's source field.
const (
	OutcomeOK       = "ok"
	OutcomeError    = "error"
	OutcomeRejected = "rejected"
	OutcomeCanceled = "canceled"
)

// Wire headers.
const (
	// ResponseHeader carries the trace ID and compact stage summary
	// back to the client: "<32 hex id>;src=<source>;<stage>=<µs>;...".
	ResponseHeader = "X-Suu-Trace"
	// IDHeader propagates a trace ID on internal hops (peer store
	// fetches, replication fan-out) so a fleet drill can follow one
	// request across replicas.
	IDHeader = "X-Suu-Trace-Id"
)

// ID is a 128-bit trace identifier.
type ID struct{ Hi, Lo uint64 }

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

const hexDigits = "0123456789abcdef"

func appendHex64(dst []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[(v>>uint(shift))&0xf])
	}
	return dst
}

// String renders the ID as 32 lowercase hex digits.
func (id ID) String() string {
	var buf [32]byte
	b := appendHex64(buf[:0], id.Hi)
	b = appendHex64(b, id.Lo)
	return string(b)
}

// ParseID parses the 32-hex-digit form produced by ID.String.
func ParseID(s string) (ID, bool) {
	if len(s) != 32 {
		return ID{}, false
	}
	hi, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return ID{}, false
	}
	lo, err := strconv.ParseUint(s[16:], 16, 64)
	if err != nil {
		return ID{}, false
	}
	return ID{Hi: hi, Lo: lo}, true
}

// splitmix64 is one SplitMix64 step from state x; applied to a counter it
// yields uniform, unique-per-process trace IDs without touching a CSPRNG
// on the hot path.
func splitmix64(x uint64) uint64 { return rng.Mix64(x + rng.Golden) }

// Ctx is one request's trace: an ID plus per-stage aggregated timings.
// All methods are safe on a nil receiver (no-ops), and concurrent use
// is safe: stage recording may happen from a detached computation
// goroutine while the HTTP goroutine finishes the request.
type Ctx struct {
	id      ID
	start   time.Time
	sampled bool
	op      string

	mu      sync.Mutex
	durs    [NumStages]int64 // nanoseconds
	counts  [NumStages]uint32
	outcome string
	source  string
	peer    string
	fpHi    uint64
	fpLo    uint64

	refs atomic.Int32
	t    *Tracer
}

// ID returns the trace ID (zero on nil).
func (c *Ctx) ID() ID {
	if c == nil {
		return ID{}
	}
	return c.id
}

// IDString returns the 32-hex trace ID, or "-" on nil — safe to pass
// straight to a log call.
func (c *Ctx) IDString() string {
	if c == nil {
		return "-"
	}
	return c.id.String()
}

// Sampled reports whether this trace won the head-sampling roll.
func (c *Ctx) Sampled() bool { return c != nil && c.sampled }

// Op returns the operation label passed to Begin.
func (c *Ctx) Op() string {
	if c == nil {
		return ""
	}
	return c.op
}

// Start returns when the trace began.
func (c *Ctx) Start() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c.start
}

// Add records d against stage s.
func (c *Ctx) Add(s Stage, d time.Duration) {
	if c == nil || int(s) >= NumStages {
		return
	}
	c.mu.Lock()
	c.durs[s] += int64(d)
	c.counts[s]++
	c.mu.Unlock()
}

// SetOutcome records the terminal outcome ("ok", "error", "rejected",
// "canceled"). The last writer wins.
func (c *Ctx) SetOutcome(o string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.outcome = o
	c.mu.Unlock()
}

// SetSource records how the payload was served (cached / computed /
// coalesced / degraded / batch).
func (c *Ctx) SetSource(src string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.source = src
	c.mu.Unlock()
}

// SetPeer records which replica served a peer store hit.
func (c *Ctx) SetPeer(p string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.peer = p
	c.mu.Unlock()
}

// SetFingerprint records the content-address of the instance.
func (c *Ctx) SetFingerprint(hi, lo uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.fpHi, c.fpLo = hi, lo
	c.mu.Unlock()
}

// Retain takes an additional reference; a detached computation that may
// outlive the request must Retain before spawning and Release when done.
func (c *Ctx) Retain() {
	if c != nil {
		c.refs.Add(1)
	}
}

// Release drops a reference; the Ctx returns to its pool at zero. The
// caller must not touch the Ctx after releasing its reference.
func (c *Ctx) Release() {
	if c == nil {
		return
	}
	if c.refs.Add(-1) == 0 {
		c.t.put(c)
	}
}

// forced reports whether this trace must be kept regardless of the
// sampling roll: errors and degraded fallbacks are always interesting.
func (c *Ctx) forced() bool {
	return (c.outcome != "" && c.outcome != OutcomeOK) || c.source == "degraded"
}

// ShouldHeader reports whether the response should carry X-Suu-Trace:
// sampled traces always, plus forced ones (errors, degraded).
func (c *Ctx) ShouldHeader() bool {
	if c == nil {
		return false
	}
	if c.sampled {
		return true
	}
	c.mu.Lock()
	f := c.forced()
	c.mu.Unlock()
	return f
}

// HeaderValue renders the compact stage summary:
//
//	<32 hex id>;src=<source>;total=<µs>;<stage>=<µs>;...
//
// Stage durations are integer microseconds; stages with zero count are
// omitted. Stages with count > 1 render as <stage>=<µs>x<count>.
func (c *Ctx) HeaderValue() string {
	if c == nil {
		return ""
	}
	var buf [256]byte
	b := appendHex64(buf[:0], c.id.Hi)
	b = appendHex64(b, c.id.Lo)
	c.mu.Lock()
	if c.source != "" {
		b = append(b, ";src="...)
		b = append(b, c.source...)
	}
	b = append(b, ";total="...)
	b = strconv.AppendInt(b, time.Since(c.start).Microseconds(), 10)
	for i := 0; i < NumStages; i++ {
		if c.counts[i] == 0 {
			continue
		}
		b = append(b, ';')
		b = append(b, stageNames[i]...)
		b = append(b, '=')
		b = strconv.AppendInt(b, c.durs[i]/1e3, 10)
		if c.counts[i] > 1 {
			b = append(b, 'x')
			b = strconv.AppendUint(b, uint64(c.counts[i]), 10)
		}
	}
	c.mu.Unlock()
	return string(b)
}

// Summary is the parsed form of an X-Suu-Trace header value.
type Summary struct {
	ID      string
	Source  string
	TotalUS int64
	// DurUS holds per-stage microseconds indexed by Stage.
	DurUS [NumStages]int64
	// Counts holds per-stage counts indexed by Stage.
	Counts [NumStages]uint32
}

// ParseHeader parses an X-Suu-Trace value produced by HeaderValue.
// Unknown fields are skipped, so the format can grow.
func ParseHeader(v string) (Summary, bool) {
	var s Summary
	if v == "" {
		return s, false
	}
	// First field is the bare trace ID.
	rest := v
	if i := strings.IndexByte(rest, ';'); i >= 0 {
		s.ID, rest = rest[:i], rest[i+1:]
	} else {
		s.ID, rest = rest, ""
	}
	if len(s.ID) != 32 {
		return Summary{}, false
	}
	for rest != "" {
		var field string
		if i := strings.IndexByte(rest, ';'); i >= 0 {
			field, rest = rest[:i], rest[i+1:]
		} else {
			field, rest = rest, ""
		}
		eq := strings.IndexByte(field, '=')
		if eq < 0 {
			continue
		}
		key, val := field[:eq], field[eq+1:]
		switch key {
		case "src":
			s.Source = val
		case "total":
			if n, err := strconv.ParseInt(val, 10, 64); err == nil {
				s.TotalUS = n
			}
		default:
			st, ok := StageByName(key)
			if !ok {
				continue
			}
			count := uint32(1)
			if x := strings.IndexByte(val, 'x'); x >= 0 {
				if n, err := strconv.ParseUint(val[x+1:], 10, 32); err == nil {
					count = uint32(n)
				}
				val = val[:x]
			}
			if n, err := strconv.ParseInt(val, 10, 64); err == nil {
				s.DurUS[st] = n
				s.Counts[st] = count
			}
		}
	}
	return s, true
}

// Config configures a Tracer.
type Config struct {
	// Sample is the head-based sampling probability in [0, 1]. Errors,
	// degraded responses, and slowest-N qualifiers are kept regardless.
	Sample float64
	// Ring is the /debug/traces ring-buffer capacity; 0 disables the
	// recorder (and slowest-N tracking).
	Ring int
	// SlowN is how many slowest traces to retain (default 32 when the
	// ring is enabled).
	SlowN int
	// Log, if non-nil, receives one binary record per kept trace.
	Log *LogWriter
}

// Tracer mints and retires trace contexts. A Tracer with Sample == 0,
// Ring == 0, and no Log is disabled: Begin returns nil and every
// downstream call no-ops — the library default costs nothing.
type Tracer struct {
	enabled   bool
	threshold uint64 // sample decision: keep when mixed id.Lo < threshold
	rec       *Recorder
	log       *LogWriter

	seq  atomic.Uint64
	seed uint64

	pool sync.Pool

	sampled atomic.Uint64
	forced  atomic.Uint64
	begun   atomic.Uint64
}

// NewTracer builds a Tracer. A nil-config-equivalent (all zero) Tracer
// is valid and disabled.
func NewTracer(cfg Config) *Tracer {
	t := &Tracer{
		seed: splitmix64(uint64(time.Now().UnixNano())),
		log:  cfg.Log,
	}
	switch {
	case cfg.Sample >= 1:
		t.threshold = ^uint64(0)
	case cfg.Sample > 0:
		t.threshold = uint64(cfg.Sample * float64(1<<63) * 2)
	}
	if cfg.Ring > 0 {
		slowN := cfg.SlowN
		if slowN <= 0 {
			slowN = 32
		}
		t.rec = NewRecorder(cfg.Ring, slowN)
	}
	t.enabled = t.threshold > 0 || t.rec != nil || t.log != nil
	t.pool.New = func() any { return &Ctx{t: t} }
	return t
}

// Enabled reports whether Begin returns live contexts.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// Recorder returns the ring recorder, or nil when disabled.
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Log returns the attached binary log writer, or nil.
func (t *Tracer) Log() *LogWriter {
	if t == nil {
		return nil
	}
	return t.log
}

// Begin starts a trace for one request. Returns nil when the tracer is
// disabled; every *Ctx method tolerates that.
func (t *Tracer) Begin(op string) *Ctx {
	if t == nil || !t.enabled {
		return nil
	}
	t.begun.Add(1)
	c := t.pool.Get().(*Ctx)
	n := t.seq.Add(1)
	c.id = ID{Hi: splitmix64(t.seed + n), Lo: splitmix64(t.seed ^ (n << 1) ^ 0xa5a5a5a5a5a5a5a5)}
	c.start = time.Now()
	c.op = op
	c.sampled = c.id.Lo < t.threshold
	if c.sampled {
		t.sampled.Add(1)
	}
	c.refs.Store(1)
	return c
}

// put resets and pools a retired Ctx.
func (t *Tracer) put(c *Ctx) {
	c.durs = [NumStages]int64{}
	c.counts = [NumStages]uint32{}
	c.outcome, c.source, c.peer, c.op = "", "", "", ""
	c.fpHi, c.fpLo = 0, 0
	c.id = ID{}
	c.sampled = false
	t.pool.Put(c)
}

// Finish closes out a request's trace: decides whether to keep it
// (sampled ∨ forced ∨ slowest-N), hands it to the recorder and the
// binary log, and releases the caller's reference. Detached retained
// holders may still record stages afterward; those late stages are
// simply not part of the kept record.
func (t *Tracer) Finish(c *Ctx) {
	if t == nil || c == nil {
		return
	}
	total := time.Since(c.start)
	c.mu.Lock()
	forced := c.forced()
	keep := c.sampled || forced
	var rec Record
	needRec := t.rec != nil || t.log != nil
	if needRec {
		rec = Record{
			ID:      c.id,
			Start:   c.start.UnixNano(),
			Op:      c.op,
			Outcome: c.outcome,
			Source:  c.source,
			Peer:    c.peer,
			FPHi:    c.fpHi,
			FPLo:    c.fpLo,
			TotalNS: int64(total),
			Durs:    c.durs,
			Counts:  c.counts,
		}
		if rec.Outcome == "" {
			rec.Outcome = OutcomeOK
		}
	}
	c.mu.Unlock()
	if forced {
		t.forced.Add(1)
	}
	if needRec {
		slow := false
		if t.rec != nil {
			slow = t.rec.Observe(&rec, keep)
		}
		if t.log != nil && (keep || slow) {
			t.log.Append(&rec)
		}
	}
	c.Release()
}

// Stats is a snapshot of tracer-level counters for /metrics.
type Stats struct {
	Begun   uint64 `json:"begun"`
	Sampled uint64 `json:"sampled"`
	Forced  uint64 `json:"forced"`
}

// Stats returns the tracer's counters (zero value when nil/disabled).
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Begun:   t.begun.Load(),
		Sampled: t.sampled.Load(),
		Forced:  t.forced.Load(),
	}
}

// Context propagation: a *Ctx rides inside a request's context so deep
// layers (the store stack) can annotate it, and a bare ID rides on
// async hops (replication fan-out) that must not retain the pooled Ctx.

type ctxKey struct{}
type idKey struct{}

// NewContext returns ctx carrying tc.
func NewContext(ctx context.Context, tc *Ctx) context.Context {
	if tc == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tc)
}

// FromContext returns the *Ctx carried by ctx, or nil.
func FromContext(ctx context.Context) *Ctx {
	tc, _ := ctx.Value(ctxKey{}).(*Ctx)
	return tc
}

// WithID returns ctx carrying a bare trace ID (value type — safe to
// hold across async boundaries after the originating Ctx is pooled).
func WithID(ctx context.Context, id ID) context.Context {
	if id.IsZero() {
		return ctx
	}
	return context.WithValue(ctx, idKey{}, id)
}

// IDFromContext extracts a trace ID from ctx: a live *Ctx wins, then a
// bare ID.
func IDFromContext(ctx context.Context) ID {
	if tc := FromContext(ctx); tc != nil {
		return tc.id
	}
	id, _ := ctx.Value(idKey{}).(ID)
	return id
}
