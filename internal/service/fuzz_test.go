package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzPlanRequestDecode throws arbitrary bytes at the real /v1/plan and
// /v1/plan/batch handlers: the server must never panic (a panic in a
// detached computation would escape net/http's per-connection recover) and
// must never 5xx — every rejection is a typed 4xx carrying a JSON error
// body (422 for an instance the LP engine cannot solve), and every
// acceptance a 200. The body cap is lowered so mutated inputs cannot grow
// instances past what a fuzz exec should solve; the committed corpus under
// testdata/fuzz is generated from internal/scenario
// (go run ./internal/scenario/gencorpus).
func FuzzPlanRequestDecode(f *testing.F) {
	f.Add([]byte(`{"instance":{"m":2,"n":2,"q":[[0.5,0],[1,0.25]]}}`))
	f.Add([]byte(`{"instance":{"m":1,"n":1,"q":[[2.5]]}}`))
	f.Add([]byte(`{"items":[{"instance":{"m":1,"n":1,"q":[[0.5]]}},{}]}`))
	f.Add([]byte(`{"instance":{"m":1,"n":1,"q":[[0.5]]},"target":1e999}`))
	f.Add([]byte(`not json at all`))
	for _, nc := range nearCertainFailure {
		f.Add([]byte(nc.body))
	}

	p := smallPlanner(func(c *Config) { c.Workers = 2; c.QueueDepth = 64; c.CacheCap = 256 })
	srv := NewServer(p)
	srv.maxBody = 64 << 10

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, path := range []string{"/v1/plan", "/v1/plan/batch"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
			case http.StatusBadRequest, http.StatusRequestTimeout,
				http.StatusRequestEntityTooLarge, http.StatusTooManyRequests,
				http.StatusUnprocessableEntity:
				var eb errorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
					t.Fatalf("%s: %d without a JSON error body: %q (input %q)", path, rec.Code, rec.Body.Bytes(), data)
				}
			default:
				t.Fatalf("%s: untyped status %d: %q (input %q)", path, rec.Code, rec.Body.Bytes(), data)
			}
		}
	})
}
