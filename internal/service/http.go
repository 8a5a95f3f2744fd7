package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/lp"
	"repro/internal/store"
	"repro/internal/trace"
)

// maxBodyBytes bounds request bodies. An n=1024, m=256 instance is ~5 MB
// of JSON; 64 MB leaves generous headroom without letting one request
// swallow the heap.
const maxBodyBytes = 64 << 20

// ErrRequestTooLarge marks a body over maxBodyBytes; the HTTP layer maps
// it to 413 so clients see the limit instead of a generic decode failure.
var ErrRequestTooLarge = errors.New("service: request body too large")

// Server is the HTTP face of a Planner: /v1/plan, /v1/estimate, /healthz,
// /readyz, /metrics. It implements http.Handler; lifecycle (listening,
// TLS, graceful shutdown) belongs to the caller's http.Server.
type Server struct {
	planner *Planner
	mux     *http.ServeMux
	maxBody int64 // request body cap in bytes; tests lower it to hit the 413 path cheaply
}

// NewServer wraps a planner.
func NewServer(p *Planner) *Server {
	s := &Server{planner: p, mux: http.NewServeMux(), maxBody: maxBodyBytes}
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	s.mux.HandleFunc("/v1/plan/batch", s.handlePlanBatch)
	s.mux.HandleFunc("/v1/estimate", s.handleEstimate)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/traces", s.handleDebugTraces)
	s.mux.HandleFunc("/version", s.handleVersion)
	if p.cfg.Store != nil {
		// Peer protocol for the replicated plan store: other replicas
		// read and write this node's local tiers here. Served from the
		// node-local view, so one peer's request never fans out again.
		s.mux.Handle("/v1/store/", store.PeerHandler(store.PeerView(p.cfg.Store)))
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON serves the non-payload documents (errors, metrics, health)
// as one sized write: the body is staged in a pooled buffer so
// Content-Length is exact and small responses avoid chunked framing.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, "encoding response", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes()) // nothing useful to do about a dead client
}

// writePayload serves a single plan/estimate response zero-copy: the
// pre-encoded canonical frame with this caller's serving flags spliced
// over its constant-size tail, behind an exact Content-Length. The frame
// bytes are shared with the cache and never mutated.
func (s *Server) writePayload(w http.ResponseWriter, sv served) {
	buf := getBuf()
	defer putBuf(buf)
	appendServed(buf, sv)
	buf.WriteByte('\n')
	s.planner.metrics.addPayloadBytes(buf.Len(), sv.cached || sv.coalesced)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// injectedHeader mirrors faults.Header without importing the chaos
// tooling into the serving path, the same way the client package mirrors
// it on the read side.
const injectedHeader = "X-Suu-Injected"

// injectedFault is the marker interface deliberately injected errors
// implement (internal/faults.InjectedError). Marking the response
// in-band is what lets a harness split injected from organic 5xx without
// grepping body text.
type injectedFault interface{ InjectedFault() bool }

// writeError maps planner errors onto status codes. Context cancellations
// mean the client is gone; the write is best-effort.
//
// Retry semantics, as a retrying client should read them: 429 and 503
// carry Retry-After and are safe to retry (planning is idempotent); 422
// means the instance is beyond what any engine here can solve — retrying
// the same request is useless; 4xx never retries; 408 means the server
// gave up at the client's own deadline.
func writeError(w http.ResponseWriter, err error) {
	var inj injectedFault
	if errors.As(err, &inj) && inj.InjectedFault() {
		w.Header().Set(injectedHeader, "compute")
	}
	switch {
	case errors.Is(err, ErrRequestTooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: err.Error()})
	case errors.Is(err, ErrBadRequest):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	case errors.Is(err, ErrOverloaded):
		// Adaptive hint: backlog cost units × measured seconds per unit ÷
		// pool width (see Planner.retryAfter), carried by the overloadError
		// the admission path builds. A plain ErrOverloaded (tests, future
		// call sites) falls back to the old constant 1s.
		retry := 1.0
		var oe *overloadError
		if errors.As(err, &oe) {
			retry = oe.retryAfter.Seconds()
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry))))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrShuttingDown):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, lp.ErrUnsolvable):
		// The LP engine cannot solve this instance (a numerical bailout or
		// a relaxation it reports non-optimal): deterministic for this
		// instance, so 422 (don't retry), not 500.
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusRequestTimeout, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// traceOutcome maps a serving error onto the trace outcome vocabulary:
// overload and drain rejections are "rejected", the client walking away
// is "canceled", everything else (bad requests included) is "error".
func traceOutcome(err error) string {
	switch {
	case err == nil:
		return trace.OutcomeOK
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrShuttingDown):
		return trace.OutcomeRejected
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return trace.OutcomeCanceled
	default:
		return trace.OutcomeError
	}
}

// sourceOf labels how a single-request serve was answered, matching the
// batch endpoint's source vocabulary.
func sourceOf(sv served) string {
	if pr, ok := sv.cf.val.(*PlanResponse); ok && pr.Degraded {
		return sourceDegraded
	}
	switch {
	case sv.coalesced:
		return sourceCoalesced
	case sv.cached:
		return sourceCached
	}
	return sourceComputed
}

// traceServed stamps a successful serve's outcome and source on the trace
// and, when the trace is kept, emits the X-Suu-Trace header the client
// parses for stage attribution. Must run before the payload write starts.
func (s *Server) traceServed(w http.ResponseWriter, tc *trace.Ctx, source string) {
	if tc == nil {
		return
	}
	tc.SetOutcome(trace.OutcomeOK)
	tc.SetSource(source)
	if tc.ShouldHeader() {
		w.Header().Set(trace.ResponseHeader, tc.HeaderValue())
	}
}

// traceError closes out a failed request: the non-ok outcome force-keeps
// the trace, the header still goes out so clients can attribute failures,
// and errors that will surface as 500s are logged with the trace ID.
func (s *Server) traceError(w http.ResponseWriter, tc *trace.Ctx, err error) {
	out := traceOutcome(err)
	tc.SetOutcome(out)
	if tc.ShouldHeader() {
		w.Header().Set(trace.ResponseHeader, tc.HeaderValue())
	}
	if out == trace.OutcomeError &&
		!errors.Is(err, ErrBadRequest) && !errors.Is(err, ErrRequestTooLarge) &&
		!errors.Is(err, lp.ErrUnsolvable) {
		trace.Error("request failed", "trace", tc.IDString(), "op", tc.Op(), "err", err)
	}
	writeError(w, err)
}

// observeAttempt meters retries a well-behaved client confesses to via the
// X-Suu-Attempt header (1-based attempt number; ≥ 2 is a retry).
func (s *Server) observeAttempt(r *http.Request) {
	if v := r.Header.Get("X-Suu-Attempt"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 2 {
			s.planner.metrics.retriesObserved.Add(1)
		}
	}
}

// decodeRequest reads one JSON document into dst, rejecting trailing
// garbage so malformed batches fail loudly instead of half-running.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w: body over %d bytes", ErrRequestTooLarge, mbe.Limit)
		}
		return badRequestf("decoding request: %v", err)
	}
	if dec.More() {
		return badRequestf("trailing data after request document")
	}
	return nil
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "use POST"})
		return false
	}
	return true
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	s.observeAttempt(r)
	tc := s.planner.tracer.Begin("plan")
	defer s.planner.tracer.Finish(tc)
	dstart := time.Now()
	var wp wirePlanRequest
	if err := s.decodeRequest(w, r, &wp); err != nil {
		s.traceError(w, tc, err)
		return
	}
	req, err := s.planner.resolvePlanItem(&wp)
	s.planner.obsStage(tc, trace.StageDecode, dstart)
	if err != nil {
		s.traceError(w, tc, err)
		return
	}
	sv, err := s.planner.planServe(r.Context(), req, tc)
	if err != nil {
		s.traceError(w, tc, err)
		return
	}
	s.traceServed(w, tc, sourceOf(sv))
	s.writePayload(w, sv)
}

// handlePlanBatch serves /v1/plan/batch: many plan items in one request,
// with per-item status. The HTTP status reflects the batch envelope only —
// a 200 may carry items that individually failed; inspect each item's
// "status" (and the top-level "errors" count).
func (s *Server) handlePlanBatch(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	s.observeAttempt(r)
	tc := s.planner.tracer.Begin("batch")
	defer s.planner.tracer.Finish(tc)
	dstart := time.Now()
	var wb wireBatchRequest
	if err := s.decodeRequest(w, r, &wb); err != nil {
		s.traceError(w, tc, err)
		return
	}
	req := BatchPlanRequest{Items: make([]PlanRequest, len(wb.Items)), DeadlineMS: wb.DeadlineMS}
	for i := range wb.Items {
		item, err := s.planner.resolvePlanItem(&wb.Items[i])
		if err != nil {
			// Exactly the typed-decode behavior: one malformed instance
			// fails the whole document as a bad request, not per-item.
			s.planner.obsStage(tc, trace.StageDecode, dstart)
			s.traceError(w, tc, err)
			return
		}
		req.Items[i] = *item
	}
	s.planner.obsStage(tc, trace.StageDecode, dstart)
	resp, err := s.planner.planBatchServe(r.Context(), &req, tc)
	if err != nil {
		s.traceError(w, tc, err)
		return
	}
	// A batch that minted brownout fallbacks is labeled degraded (and
	// force-kept); otherwise the envelope source is just "batch" — the
	// per-item mix lives in the stage counts and the envelope counters.
	source := "batch"
	if resp.Degraded > 0 {
		source = sourceDegraded
	}
	s.traceServed(w, tc, source)
	// Batch responses are machine-consumed and carry one payload per item;
	// compact encoding keeps the wire cost of a big batch proportional to
	// its content, not to pretty-printing (indentation roughly doubles an
	// n=64 plan payload).
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	s.writeBatch(w, resp)
}

// writeBatch streams the batch envelope: header fields first, then each
// item's pre-encoded payload frame copied straight into the response —
// the whole document is never materialized, so a 256-item batch costs one
// pooled 32 KB buffer, not a megabyte of assembled JSON. The byte layout
// matches what json.Marshal(resp) produced before (batch item payloads
// always carry serving flags false; the envelope's source field is where
// how-served lives), so decoded responses are identical.
func (s *Server) writeBatch(w http.ResponseWriter, resp *BatchPlanResponse) {
	bw := getBufio(w)
	defer putBufio(bw)
	var scratch [20]byte
	writeField := func(name string, n int, first bool) {
		if !first {
			_ = bw.WriteByte(',')
		}
		_ = bw.WriteByte('"')
		_, _ = bw.WriteString(name)
		_, _ = bw.WriteString(`":`)
		_, _ = bw.Write(strconv.AppendInt(scratch[:0], int64(n), 10))
	}
	_ = bw.WriteByte('{')
	writeField("size", resp.Size, true)
	writeField("ok", resp.OK, false)
	writeField("errors", resp.Errors, false)
	writeField("cached", resp.Cached, false)
	writeField("computed", resp.Computed, false)
	writeField("coalesced", resp.Coalesced, false)
	writeField("degraded", resp.Degraded, false)
	writeField("cost_units", resp.CostUnits, false)
	_, _ = bw.WriteString(`,"items":[`)
	m := s.planner.metrics
	for i := range resp.Items {
		if i > 0 {
			_ = bw.WriteByte(',')
		}
		it := &resp.Items[i]
		if it.Status != "ok" {
			_, _ = bw.WriteString(`{"status":"error","error":`)
			msg, _ := json.Marshal(it.Error) // errors are rare; alloc is fine
			_, _ = bw.Write(msg)
			_ = bw.WriteByte('}')
			continue
		}
		_, _ = bw.WriteString(`{"status":"ok","source":"`)
		_, _ = bw.WriteString(it.Source)
		_, _ = bw.WriteString(`","plan":`)
		frame := it.frame
		if frame == nil {
			// Hand-assembled responses (tests, future callers) without a
			// frame fall back to a cold encode.
			frame, _ = json.Marshal(it.Plan)
		}
		_, _ = bw.Write(frame)
		_ = bw.WriteByte('}')
		// Per item, so frames_spliced reconciles with the batch item
		// counters: spliced = cached + coalesced items, cold = computed +
		// degraded.
		m.addPayloadBytes(len(frame), it.Source == sourceCached || it.Source == sourceCoalesced)
	}
	_, _ = bw.WriteString("]}\n")
	_ = bw.Flush()
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	s.observeAttempt(r)
	tc := s.planner.tracer.Begin("estimate")
	defer s.planner.tracer.Finish(tc)
	dstart := time.Now()
	var we wireEstimateRequest
	if err := s.decodeRequest(w, r, &we); err != nil {
		s.traceError(w, tc, err)
		return
	}
	ins, err := s.planner.decodeInstance(we.Instance)
	s.planner.obsStage(tc, trace.StageDecode, dstart)
	if err != nil {
		s.traceError(w, tc, err)
		return
	}
	req := EstimateRequest{Instance: ins, Policy: we.Policy, Trials: we.Trials,
		Seed: we.Seed, Stream: we.Stream, DeadlineMS: we.DeadlineMS}
	if !req.Stream {
		sv, err := s.planner.estimateServe(r.Context(), &req, nil, tc)
		if err != nil {
			s.traceError(w, tc, err)
			return
		}
		s.traceServed(w, tc, sourceOf(sv))
		s.writePayload(w, sv)
		return
	}
	s.streamEstimate(w, r, &req, tc)
}

// estimateEvent is one NDJSON line of a streamed estimate: progress lines
// carry only progress, the final line carries the result.
type estimateEvent struct {
	Progress *Progress         `json:"progress,omitempty"`
	Result   *EstimateResponse `json:"result,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// streamEstimate runs the estimate with progress flushed as NDJSON.
// Validation runs before the 200 status line goes out, so malformed
// requests still get real 4xx codes; only errors that arise mid-compute
// (overload, shutdown, engine failures) surface as a final
// {"error": ...} line — the price of streaming over plain HTTP.
func (s *Server) streamEstimate(w http.ResponseWriter, r *http.Request, req *EstimateRequest, tc *trace.Ctx) {
	if err := s.planner.ValidateEstimate(req); err != nil {
		s.traceError(w, tc, err)
		return
	}
	// Stage timings are not known before the 200 goes out, so a sampled
	// stream carries only the trace ID; the stages still land in /metrics
	// and the recorder.
	if tc != nil && tc.Sampled() {
		w.Header().Set(trace.ResponseHeader, tc.IDString())
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Each NDJSON line is staged in a pooled buffer and written in one
	// call — per-event encoder allocations stay off the stream's hot path.
	flushLine := func(buf *bytes.Buffer) {
		_, _ = w.Write(buf.Bytes())
		putBuf(buf)
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit := func(ev estimateEvent) {
		buf := getBuf()
		_ = json.NewEncoder(buf).Encode(ev)
		flushLine(buf)
	}
	sv, err := s.planner.estimateServe(r.Context(), req, func(pr Progress) {
		p := pr
		emit(estimateEvent{Progress: &p})
	}, tc)
	if err != nil {
		tc.SetOutcome(traceOutcome(err))
		emit(estimateEvent{Error: err.Error()})
		return
	}
	tc.SetOutcome(trace.OutcomeOK)
	tc.SetSource(sourceOf(sv))
	// The result line splices the pre-encoded frame into the event
	// envelope — a cache-hit stream serves its payload with zero Marshal.
	buf := getBuf()
	buf.WriteString(`{"result":`)
	n := buf.Len()
	appendServed(buf, sv)
	s.planner.metrics.addPayloadBytes(buf.Len()-n, sv.cached || sv.coalesced)
	buf.WriteString("}\n")
	flushLine(buf)
}

// healthBody is what /healthz serves.
type healthBody struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.planner.Metrics()
	status := "ok"
	code := http.StatusOK
	if s.planner.ShuttingDown() {
		status = "shutting-down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthBody{Status: status, UptimeSeconds: snap.UptimeSeconds})
}

// handleReadyz serves readiness, distinct from /healthz liveness: a
// replica is ready only after Warmup and before BeginDrain/Close. Flip it
// (via Planner.BeginDrain) before http.Server.Shutdown so balancers stop
// routing during the graceful drain instead of eating connection errors.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.planner.Ready() {
		writeJSON(w, http.StatusOK, healthBody{Status: "ready", UptimeSeconds: s.planner.Metrics().UptimeSeconds})
		return
	}
	status := "not-ready"
	if s.planner.draining.Load() || s.planner.ShuttingDown() {
		status = "draining"
	}
	writeJSON(w, http.StatusServiceUnavailable, healthBody{Status: status, UptimeSeconds: s.planner.Metrics().UptimeSeconds})
}

// handleMetrics serves the snapshot as JSON, or as Prometheus text
// exposition with ?format=prom — both rendered from one snapshot call,
// so the two views of an instant agree.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.planner.Metrics()
	if r.URL.Query().Get("format") == "prom" {
		body := promMetrics(snap)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// String renders a snapshot compactly for operator logs.
func (sn MetricsSnapshot) String() string {
	return fmt.Sprintf("plans=%d estimates=%d batches=%d batch_items=%d hit_rate=%.2f coalesced=%d rejected=%d degraded=%d abandoned=%d retries_seen=%d errors=%d inflight=%d plan_p99=%.2fms batch_p99=%.2fms",
		sn.Plans, sn.Estimates, sn.Batches, sn.BatchItems, sn.CacheHitRate, sn.Coalesced, sn.Rejected, sn.Degraded, sn.Abandoned, sn.RetriesSeen, sn.Errors, sn.InFlight, sn.PlanLatency.P99*1e3, sn.BatchLatency.P99*1e3)
}
