package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// testFrame builds a cachedFrame the way the planner's cold-encode path
// does: one json.Marshal of the canonical (flags-false) response.
func testFrame(t *testing.T, v any) *cachedFrame {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return newCachedFrame(v, b)
}

// TestFrameRoundTripAcrossShapes is the frame≡struct property: for every
// scenario shape the planner accepts, the stored byte frame decodes back
// to exactly the struct the planner computed, and the frame is
// byte-identical to the canonical encoding of that struct. Shapes the
// planner rejects (forest, layered precedence) must reject identically
// through the serving path.
func TestFrameRoundTripAcrossShapes(t *testing.T) {
	p := propPlanner()
	defer p.Close()
	n := propScenarios(t) / 4
	for si, shape := range scenario.Shapes {
		g := scenario.New(8800 + int64(si))
		for i := 0; i < n; i++ {
			ins, err := g.Instance(shape)
			if err != nil {
				t.Fatal(err)
			}
			req := &PlanRequest{Instance: ins}
			sv, err := p.planServe(context.Background(), req, nil)
			if err != nil {
				// The serving path must reject exactly what the library
				// rejects — nothing shape-specific may leak in.
				if _, lerr := p.Plan(context.Background(), req); lerr == nil || lerr.Error() != err.Error() {
					t.Fatalf("%s/%d: planServe err %q, Plan err %v", shape, i, err, lerr)
				}
				continue
			}
			want := sv.cf.val.(*PlanResponse)
			var got PlanResponse
			if err := json.Unmarshal(sv.cf.frame, &got); err != nil {
				t.Fatalf("%s/%d: frame does not decode: %v", shape, i, err)
			}
			if !reflect.DeepEqual(&got, want) {
				t.Fatalf("%s/%d: decoded frame differs from planner struct", shape, i)
			}
			canon, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canon, sv.cf.frame) {
				t.Fatalf("%s/%d: frame is not the canonical encoding\nframe: %s\ncanon: %s", shape, i, sv.cf.frame, canon)
			}
			if !want.Degraded && sv.cf.splice < 0 {
				t.Fatalf("%s/%d: canonical frame not spliceable", shape, i)
			}
		}
	}
}

// TestConcurrentHitsShareFrame pins the zero-copy claim under -race:
// every concurrent cache hit serves from the same backing array, splicing
// never mutates it, and the served bytes are exactly prefix+spliced-tail.
func TestConcurrentHitsShareFrame(t *testing.T) {
	p := smallPlanner(nil)
	defer p.Close()
	req := testInstance(t, "uniform", 4, 12, 99)
	if _, err := p.Plan(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	first, err := p.planServe(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !first.cached {
		t.Fatal("second serve of the same request was not a cache hit")
	}
	frame := first.cf.frame
	sum := sha256.Sum256(frame)
	wantTail := append(append([]byte{}, frame[:first.cf.splice]...), `"cached":true}`...)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := new(bytes.Buffer)
			for i := 0; i < 50; i++ {
				sv, err := p.planServe(context.Background(), req, nil)
				if err != nil {
					errs <- err
					return
				}
				if &sv.cf.frame[0] != &frame[0] {
					errs <- fmt.Errorf("hit served from a copied frame")
					return
				}
				buf.Reset()
				appendServed(buf, sv)
				if !bytes.Equal(buf.Bytes(), wantTail) {
					errs <- fmt.Errorf("spliced payload mismatch: %s", buf.Bytes())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if sha256.Sum256(frame) != sum {
		t.Fatal("shared frame bytes mutated by concurrent serving")
	}
}

// TestHTTPContentLength pins sized (non-chunked) writes on the single-plan
// endpoint and on error responses: the Content-Length header is present
// and exact, so proxies can cache and clients can preallocate.
func TestHTTPContentLength(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	req := testInstance(t, "uniform", 3, 9, 5)

	for pass, wantCached := range []bool{false, true} {
		resp, body := postJSON(t, ts, "/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: status %d: %s", pass, resp.StatusCode, body)
		}
		if len(resp.TransferEncoding) != 0 {
			t.Fatalf("pass %d: chunked response: %v", pass, resp.TransferEncoding)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Fatalf("pass %d: Content-Length %d, body %d bytes", pass, resp.ContentLength, len(body))
		}
		var got PlanResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Cached != wantCached {
			t.Fatalf("pass %d: cached=%v, want %v", pass, got.Cached, wantCached)
		}
	}

	resp, body := postJSON(t, ts, "/v1/plan", &PlanRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid request: status %d", resp.StatusCode)
	}
	if len(resp.TransferEncoding) != 0 {
		t.Fatalf("error response chunked: %v", resp.TransferEncoding)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("error Content-Length %d, body %d bytes", resp.ContentLength, len(body))
	}
}

// TestMetricsZeroCopyLedger drives one cold encode and one spliced hit
// through HTTP and checks the serving ledger reconciles: both payload
// byte buckets filled, the encode stage populated, and exactly as
// many splices as cache/coalesced serves.
func TestMetricsZeroCopyLedger(t *testing.T) {
	ts, p := newTestServer(t, nil)
	req := testInstance(t, "uniform", 3, 8, 17)
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts, "/v1/plan", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	for _, key := range []string{"payload_bytes_served", "stages", "frames_spliced", "cold_encodes"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("/metrics missing %q", key)
		}
	}

	snap := p.Metrics()
	if snap.ColdEncodes < 1 {
		t.Fatalf("cold_encodes = %d, want >= 1", snap.ColdEncodes)
	}
	if snap.Stages["encode"].Count < 1 {
		t.Fatalf("encode stage count = %d, want >= 1", snap.Stages["encode"].Count)
	}
	if snap.PayloadBytes.ColdEncode == 0 || snap.PayloadBytes.EncodedCache == 0 {
		t.Fatalf("payload bytes not split: cold=%d cache=%d",
			snap.PayloadBytes.ColdEncode, snap.PayloadBytes.EncodedCache)
	}
	if snap.FramesSpliced != snap.CacheHits+snap.Coalesced {
		t.Fatalf("frames_spliced=%d does not reconcile with hits=%d + coalesced=%d",
			snap.FramesSpliced, snap.CacheHits, snap.Coalesced)
	}
}

// TestStoredEnvelopeKeepsFrameBytes pins the store tier's half of the
// byte-stability contract: the frame that goes into a stored envelope
// comes back out byte-identical, and the decoded struct matches.
func TestStoredEnvelopeKeepsFrameBytes(t *testing.T) {
	want := &PlanResponse{Fingerprint: "abc", Class: "independent", M: 2, N: 4, Length: 4, TStar: 2.5}
	cf := testFrame(t, want)
	b, err := encodeStored(kindPlan, cf.frame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeStored(kindPlan, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.frame, cf.frame) {
		t.Fatalf("store round-trip changed frame bytes\nin:  %s\nout: %s", cf.frame, got.frame)
	}
	if !reflect.DeepEqual(got.val, want) {
		t.Fatalf("store round-trip changed decoded struct: %+v", got.val)
	}
	if got.splice != cf.splice {
		t.Fatalf("store round-trip changed splice: %d vs %d", got.splice, cf.splice)
	}
}

// TestDecodeCacheSharesInstances pins the request-side mirror of
// zero-copy: byte-identical instance documents resolve to the same
// decoded *model.Instance (one decode total), different documents to
// different instances, and the null/absent instance still surfaces the
// "missing instance" bad request instead of a zero-value instance.
func TestDecodeCacheSharesInstances(t *testing.T) {
	p := smallPlanner(nil)
	defer p.Close()
	req := testInstance(t, "uniform", 3, 9, 21)
	raw, err := json.Marshal(req.Instance)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.decodeInstance(raw)
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.decodeInstance(append([]byte(nil), raw...))
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("byte-identical instance decoded twice")
	}
	if got := p.Metrics(); got.DecodeHits != 1 || got.DecodeMisses != 1 {
		t.Fatalf("decode ledger hits=%d misses=%d, want 1/1", got.DecodeHits, got.DecodeMisses)
	}
	other := testInstance(t, "uniform", 3, 9, 22)
	rawOther, _ := json.Marshal(other.Instance)
	second, err := p.decodeInstance(rawOther)
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("different documents shared a decoded instance")
	}
	for _, raw := range []json.RawMessage{nil, json.RawMessage("null")} {
		ins, err := p.decodeInstance(raw)
		if err != nil || ins != nil {
			t.Fatalf("null instance: got (%v, %v), want (nil, nil)", ins, err)
		}
	}
	if _, err := p.decodeInstance(json.RawMessage(`{"m":0,"n":0}`)); err == nil {
		t.Fatal("invalid instance decoded without error")
	}
}

// TestDecodeCacheRefusesOversize: the decode cache's byte budget is a
// bound. A document larger than the whole budget is not kept, and
// offering it does not flush the entries that fit.
func TestDecodeCacheRefusesOversize(t *testing.T) {
	c := newDecodeCache(100)
	small, big := bytes.Repeat([]byte("a"), 40), bytes.Repeat([]byte("b"), 101)
	ins := &model.Instance{}
	c.put(hashRaw(small), small, ins)
	c.put(hashRaw(big), big, ins)
	if _, ok := c.get(hashRaw(big), big); ok {
		t.Fatal("a 101-byte document stayed resident under a 100-byte budget")
	}
	if _, ok := c.get(hashRaw(small), small); !ok {
		t.Fatal("the refused document evicted an entry that fits")
	}
}

// discardRW is a ResponseWriter for serving benchmarks: header map is
// real (handlers set Content-Type/Length), bodies go nowhere.
type discardRW struct{ h http.Header }

func (d *discardRW) Header() http.Header         { return d.h }
func (d *discardRW) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardRW) WriteHeader(int)             {}

// benchServe measures steady-state hit serving for one endpoint: the
// request body is pre-encoded once and rewound per iteration, so the
// measured allocations are the serving path's own.
func benchServe(b *testing.B, path string, reqBody any, prime func(p *Planner)) {
	p := smallPlanner(func(c *Config) { c.Workers = 1; c.TrialWorkers = 1 })
	defer p.Close()
	srv := NewServer(p)
	prime(p)
	payload, err := json.Marshal(reqBody)
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(payload)
	req, err := http.NewRequest(http.MethodPost, path, io.NopCloser(rd))
	if err != nil {
		b.Fatal(err)
	}
	w := &discardRW{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(payload)
		req.Body = io.NopCloser(rd)
		srv.ServeHTTP(w, req)
	}
}

// BenchmarkServePlanHit is the CI allocation guard for the single-plan
// hit path: a cache hit must serve by splicing the stored frame, never by
// re-marshaling the payload.
func BenchmarkServePlanHit(b *testing.B) {
	req := testInstanceB(b, "uniform", 4, 16, 3)
	benchServe(b, "/v1/plan", req, func(p *Planner) {
		if _, err := p.Plan(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkServeEstimateHit is BenchmarkServePlanHit for /v1/estimate: a
// warm estimate serves its cached frame with the serving flags spliced.
func BenchmarkServeEstimateHit(b *testing.B) {
	req := &EstimateRequest{Instance: testInstanceB(b, "uniform", 4, 16, 3).Instance, Policy: "sem", Trials: 64, Seed: 5}
	benchServe(b, "/v1/estimate", req, func(p *Planner) {
		if _, err := p.Estimate(context.Background(), req, nil); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkServeBatchHit guards the streaming batch envelope: 16 warm
// items served per request, every payload spliced from its cached frame.
func BenchmarkServeBatchHit(b *testing.B) {
	items := make([]PlanRequest, 16)
	for i := range items {
		items[i] = *testInstanceB(b, "uniform", 4, 12, int64(100+i))
	}
	benchServe(b, "/v1/plan/batch", &BatchPlanRequest{Items: items}, func(p *Planner) {
		for i := range items {
			if _, err := p.Plan(context.Background(), &items[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// testInstanceB is testInstance for benchmarks.
func testInstanceB(b *testing.B, family string, m, n int, seed int64) *PlanRequest {
	b.Helper()
	ins, err := workload.Generate(workload.Spec{Family: family, M: m, N: n, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return &PlanRequest{Instance: ins}
}
