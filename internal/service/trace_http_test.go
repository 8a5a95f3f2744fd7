package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
)

// tracedServer is newTestServer with always-on tracing: every request is
// sampled, the ring and slowest lists are enabled.
func tracedServer(t *testing.T, extra func(*Config)) (*httptest.Server, *Planner) {
	t.Helper()
	return newTestServer(t, func(cfg *Config) {
		cfg.TraceSample = 1
		cfg.TraceRing = 64
		cfg.TraceSlowN = 8
		if extra != nil {
			extra(cfg)
		}
	})
}

func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

func getJSON(t *testing.T, ts *httptest.Server, path string, dst any) {
	t.Helper()
	body := getBody(t, ts, path)
	if err := json.Unmarshal(body, dst); err != nil {
		t.Fatalf("GET %s: decoding %s: %v", path, body, err)
	}
}

// TestTraceHeaderAttribution pins the client-facing attribution contract:
// a sampled request's response carries X-Suu-Trace with the trace ID, the
// serving source, and per-stage timings; a repeat of the same request is
// attributed to the cache with no solve stage.
func TestTraceHeaderAttribution(t *testing.T) {
	ts, _ := tracedServer(t, nil)
	req := testInstance(t, "uniform", 4, 12, 311)

	resp, body := postJSON(t, ts, "/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	hdr := resp.Header.Get(trace.ResponseHeader)
	if hdr == "" {
		t.Fatal("sampled request carried no X-Suu-Trace header")
	}
	sum, ok := trace.ParseHeader(hdr)
	if !ok {
		t.Fatalf("unparseable header %q", hdr)
	}
	if len(sum.ID) != 32 || sum.ID == strings.Repeat("0", 32) {
		t.Fatalf("bad trace ID in %q", hdr)
	}
	if sum.Source != "computed" {
		t.Fatalf("first serve source %q, want computed (header %q)", sum.Source, hdr)
	}
	if sum.TotalUS <= 0 {
		t.Fatalf("non-positive total in %q", hdr)
	}
	for _, st := range []trace.Stage{trace.StageDecode, trace.StageSolve, trace.StageRound, trace.StageEncode} {
		if sum.Counts[st] == 0 {
			t.Errorf("computed plan missing stage %v in %q", st, hdr)
		}
	}

	resp2, _ := postJSON(t, ts, "/v1/plan", req)
	sum2, ok := trace.ParseHeader(resp2.Header.Get(trace.ResponseHeader))
	if !ok {
		t.Fatalf("unparseable header %q", resp2.Header.Get(trace.ResponseHeader))
	}
	if sum2.Source != "cached" {
		t.Fatalf("repeat serve source %q, want cached", sum2.Source)
	}
	if sum2.ID == sum.ID {
		t.Fatal("two requests shared one trace ID")
	}
	if sum2.Counts[trace.StageSolve] != 0 {
		t.Fatal("cache hit reported a solve stage")
	}
}

// TestTraceHeaderOnlyWhenKept pins the sampling gate: with sampling off
// (but the recorder on), a successful request gets no header — but a
// failing request is forced and still carries one.
func TestTraceHeaderOnlyWhenKept(t *testing.T) {
	ts, _ := newTestServer(t, func(cfg *Config) {
		cfg.TraceSample = 0
		cfg.TraceRing = 8
	})
	req := testInstance(t, "uniform", 4, 8, 99)
	resp, _ := postJSON(t, ts, "/v1/plan", req)
	if h := resp.Header.Get(trace.ResponseHeader); h != "" {
		t.Fatalf("unsampled success carried header %q", h)
	}
	// A malformed body fails decode: outcome=error forces the trace.
	r2, err := ts.Client().Post(ts.URL+"/v1/plan", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if h := r2.Header.Get(trace.ResponseHeader); h == "" {
		t.Fatal("failed request carried no forced trace header")
	}
}

// TestTraceStagesReconcile pins the attribution ledger inside one
// /metrics document, traced or not: every stage recorded outside the HTTP
// handler (everything but decode) is covered by the endpoint latency
// sums, the stage map names only canonical stages, and the store and
// cold-encode counters are the store.* and encode stage counts.
func TestTraceStagesReconcile(t *testing.T) {
	for _, tt := range []struct {
		name   string
		server func(*testing.T, func(*Config)) (*httptest.Server, *Planner)
	}{{"traced", tracedServer}, {"untraced", newTestServer}} {
		t.Run(tt.name, func(t *testing.T) {
			// A one-entry LRU sends the repeat below to the store.
			ts, p := tt.server(t, func(cfg *Config) {
				cfg.CacheCap = 1
				cfg.Store = store.NewMem(1<<20, 0)
			})
			for seed := int64(0); seed < 4; seed++ {
				req := testInstance(t, "uniform", 4, 10, seed)
				if resp, body := postJSON(t, ts, "/v1/plan", req); resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", resp.StatusCode, body)
				}
			}
			// One store hit and one estimate widen the stage mix.
			postJSON(t, ts, "/v1/plan", testInstance(t, "uniform", 4, 10, 0))
			est := testInstance(t, "uniform", 4, 10, 1)
			postJSON(t, ts, "/v1/estimate", map[string]any{"instance": est.Instance, "trials": 50})

			snap := p.Metrics()
			if len(snap.Stages) == 0 {
				t.Fatal("no stage attribution in snapshot")
			}
			known := make(map[string]bool)
			for _, name := range trace.StageNames() {
				known[name] = true
			}
			endpointSum := snap.PlanLatency.Sum + snap.EstLatency.Sum + snap.BatchLatency.Sum
			var stageSum float64
			for name, l := range snap.Stages {
				if !known[name] {
					t.Errorf("unknown stage %q in snapshot", name)
				}
				if l.Count == 0 || l.Sum < 0 {
					t.Errorf("stage %q: empty snapshot %+v", name, l)
				}
				if name != "decode" {
					stageSum += l.Sum
				}
			}
			if stageSum > endpointSum {
				t.Fatalf("stage sums %.6fs exceed endpoint sums %.6fs", stageSum, endpointSum)
			}
			for _, want := range []string{"decode", "solve", "round", "encode", "store.mem", "store.miss"} {
				if _, ok := snap.Stages[want]; !ok {
					t.Errorf("stage %q missing from snapshot (have %v)", want, snap.Stages)
				}
			}
			st := snap.Stages
			lookups := snap.StoreMemHits + snap.StoreDiskHits + snap.StorePeerHits + snap.StoreMisses
			if want := st["store.mem"].Count + st["store.disk"].Count + st["store.peer"].Count + st["store.miss"].Count; lookups != want {
				t.Errorf("store counters sum to %d, store.* stage counts to %d", lookups, want)
			}
			if snap.ColdEncodes != st["encode"].Count {
				t.Errorf("cold_encodes %d, encode stage count %d", snap.ColdEncodes, st["encode"].Count)
			}
			if p.Tracer().Enabled() && (snap.Traced == 0 || snap.TraceSampled == 0 || snap.TraceRingKept == 0) {
				t.Fatalf("trace ledger empty: traced=%d sampled=%d kept=%d",
					snap.Traced, snap.TraceSampled, snap.TraceRingKept)
			}
			samples := checkPromExposition(t, getBody(t, ts, "/metrics?format=prom"))
			if got := samples[`suu_stage_seconds_count{stage="solve"}`]; got != float64(snap.Stages["solve"].Count) {
				t.Fatalf("prom solve stage count %v, snapshot says %d", got, snap.Stages["solve"].Count)
			}
		})
	}
}

// TestWarmupStaysOutOfStages pins that Warmup's probe solve is no request:
// it leaves the stage ledger empty.
func TestWarmupStaysOutOfStages(t *testing.T) {
	p := smallPlanner(nil)
	defer p.Close()
	if err := p.Warmup(); err != nil {
		t.Fatal(err)
	}
	if st := p.Metrics().Stages; len(st) != 0 {
		t.Fatalf("Warmup recorded stages %v", st)
	}
}

// TestDebugTracesEndpoint pins /debug/traces: kept traces are listed
// newest-first, filters work, the slowest list is populated, and the
// recorder ledger reconciles with the tracer's.
func TestDebugTracesEndpoint(t *testing.T) {
	ts, _ := tracedServer(t, nil)
	for seed := int64(0); seed < 3; seed++ {
		postJSON(t, ts, "/v1/plan", testInstance(t, "uniform", 4, 8, seed))
	}
	est := testInstance(t, "uniform", 4, 8, 7)
	postJSON(t, ts, "/v1/estimate", map[string]any{"instance": est.Instance, "trials": 50})

	var body struct {
		Enabled bool `json:"enabled"`
		Tracer  struct {
			Begun   uint64 `json:"begun"`
			Sampled uint64 `json:"sampled"`
		} `json:"tracer"`
		Recorder struct {
			Kept     uint64 `json:"kept"`
			SlowKept uint64 `json:"slow_kept"`
		} `json:"recorder"`
		Slowest []struct {
			ID      string  `json:"id"`
			Op      string  `json:"op"`
			TotalMS float64 `json:"total_ms"`
		} `json:"slowest"`
		Recent []struct {
			ID      string `json:"id"`
			Op      string `json:"op"`
			Outcome string `json:"outcome"`
		} `json:"recent"`
	}
	getJSON(t, ts, "/debug/traces", &body)
	if !body.Enabled {
		t.Fatal("tracing reported disabled")
	}
	if body.Tracer.Begun != 4 || body.Tracer.Sampled != 4 {
		t.Fatalf("tracer ledger %+v, want 4 begun and sampled", body.Tracer)
	}
	if body.Recorder.Kept != 4 || len(body.Recent) != 4 {
		t.Fatalf("kept=%d recent=%d, want 4", body.Recorder.Kept, len(body.Recent))
	}
	if len(body.Slowest) == 0 || body.Recorder.SlowKept == 0 {
		t.Fatal("slowest-N list empty")
	}
	for i := 1; i < len(body.Slowest); i++ {
		if body.Slowest[i].TotalMS > body.Slowest[i-1].TotalMS {
			t.Fatal("slowest list not ordered slowest-first")
		}
	}
	if body.Recent[0].Op != "estimate" {
		t.Fatalf("recent[0].op = %q, want the estimate (newest first)", body.Recent[0].Op)
	}

	var filtered struct {
		Recent []struct {
			Op string `json:"op"`
		} `json:"recent"`
	}
	getJSON(t, ts, "/debug/traces?op=plan&n=2", &filtered)
	if len(filtered.Recent) != 2 {
		t.Fatalf("op=plan&n=2 returned %d traces", len(filtered.Recent))
	}
	for _, r := range filtered.Recent {
		if r.Op != "plan" {
			t.Fatalf("op filter leaked %q", r.Op)
		}
	}
}

// TestVersionEndpoint pins /version: build identification a load run can
// stamp into its report.
func TestVersionEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	var vi VersionInfo
	getJSON(t, ts, "/version", &vi)
	if vi.GoVersion == "" || !strings.HasPrefix(vi.GoVersion, "go") {
		t.Fatalf("go_version %q", vi.GoVersion)
	}
	if vi.GOMAXPROCS < 1 || vi.NumCPU < 1 {
		t.Fatalf("gomaxprocs=%d num_cpu=%d", vi.GOMAXPROCS, vi.NumCPU)
	}
	if vi.OS == "" || vi.Arch == "" {
		t.Fatalf("os=%q arch=%q", vi.OS, vi.Arch)
	}
}

// checkPromExposition validates Prometheus text-format discipline and
// returns every sample: each non-comment line is `name{labels} value`,
// every sampled family was declared by a preceding TYPE line, and no
// value fails to parse. CI's smoke scrape relies on this checker (via
// TestPromExposition) as the format oracle.
func checkPromExposition(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	declared := make(map[string]string)
	for ln, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[3] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, parts[3])
			}
			declared[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		if valStr != "+Inf" && valStr != "-Inf" && valStr != "NaN" {
			if _, err := strconv.ParseFloat(valStr, 64); err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
			}
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, line)
			}
			name = series[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if _, ok := declared[family]; !ok {
			if _, ok := declared[name]; !ok {
				t.Fatalf("line %d: sample %q has no TYPE declaration", ln+1, name)
			}
		}
		v, _ := strconv.ParseFloat(valStr, 64)
		samples[series] = v
	}
	return samples
}

// TestPromExposition pins /metrics?format=prom: the document parses
// under the format checker and its counters agree with the JSON view.
func TestPromExposition(t *testing.T) {
	ts, p := tracedServer(t, nil)
	for seed := int64(0); seed < 3; seed++ {
		postJSON(t, ts, "/v1/plan", testInstance(t, "uniform", 4, 8, seed))
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples := checkPromExposition(t, body)

	snap := p.Metrics()
	if got := samples["suu_plans_total"]; got != float64(snap.Plans) {
		t.Fatalf("suu_plans_total %v, snapshot says %d", got, snap.Plans)
	}
	if got := samples["suu_traced_total"]; got < 3 {
		t.Fatalf("suu_traced_total %v, want >= 3", got)
	}
	if _, ok := samples[`suu_stage_seconds_count{stage="solve"}`]; !ok {
		keys := make([]string, 0)
		for k := range samples {
			if strings.HasPrefix(k, "suu_stage_seconds") {
				keys = append(keys, k)
			}
		}
		t.Fatalf("no solve stage summary; stage series: %v", keys)
	}
	if _, ok := samples[`suu_plan_latency_seconds{quantile="0.99"}`]; !ok {
		t.Fatal("plan latency summary missing quantile lines")
	}
}

// TestTraceLogEndToEnd pins the binary trace log wired through Config:
// served requests land in the log as decodable records carrying the
// stages the header reported.
func TestTraceLogEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	lw := trace.NewLogWriter(&buf)
	ts, _ := tracedServer(t, func(cfg *Config) { cfg.TraceLog = lw })
	ids := make(map[string]bool)
	for seed := int64(0); seed < 3; seed++ {
		resp, _ := postJSON(t, ts, "/v1/plan", testInstance(t, "uniform", 4, 8, seed))
		sum, ok := trace.ParseHeader(resp.Header.Get(trace.ResponseHeader))
		if !ok {
			t.Fatalf("unparseable header %q", resp.Header.Get(trace.ResponseHeader))
		}
		ids[sum.ID] = true
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := trace.ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil || skipped != 0 {
		t.Fatalf("ReadLog err=%v skipped=%d", err, skipped)
	}
	if len(recs) != 3 {
		t.Fatalf("log has %d records, want 3", len(recs))
	}
	for _, rec := range recs {
		if !ids[rec.ID.String()] {
			t.Fatalf("log record %s not among served trace IDs %v", rec.ID, ids)
		}
		if rec.Op != "plan" || rec.Outcome != trace.OutcomeOK {
			t.Fatalf("record %+v", rec)
		}
		if rec.Counts[trace.StageEncode] == 0 && rec.Counts[trace.StageDecode] == 0 {
			t.Fatalf("record carries no stages: %+v", rec)
		}
	}
}

// TestBatchTraceHeader pins batch attribution: one trace covers the whole
// batch, stage counts aggregate across items (decode counts every item),
// and the source is the batch envelope label.
func TestBatchTraceHeader(t *testing.T) {
	ts, _ := tracedServer(t, nil)
	items := make([]map[string]any, 0, 3)
	for seed := int64(0); seed < 3; seed++ {
		req := testInstance(t, "uniform", 4, 8, seed)
		items = append(items, map[string]any{"instance": req.Instance})
	}
	resp, body := postJSON(t, ts, "/v1/plan/batch", map[string]any{"items": items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	sum, ok := trace.ParseHeader(resp.Header.Get(trace.ResponseHeader))
	if !ok {
		t.Fatalf("unparseable batch header %q", resp.Header.Get(trace.ResponseHeader))
	}
	if sum.Source != "batch" {
		t.Fatalf("batch source %q", sum.Source)
	}
	if sum.Counts[trace.StageSolve] < 3 {
		t.Fatalf("batch of 3 computed items reported %d solve spans (header %q)",
			sum.Counts[trace.StageSolve], resp.Header.Get(trace.ResponseHeader))
	}
}
