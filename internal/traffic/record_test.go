package traffic

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/workload"
)

func sampleHeader() Header {
	return Header{
		Op: "plan",
		Specs: []workload.Spec{
			{Family: "uniform", M: 4, N: 16, Seed: 1},
			{Family: "uniform", M: 4, N: 16, Seed: 2},
		},
		Seed:        9,
		Curve:       "switching:200:50:1s",
		Popularity:  "zipf:0.9",
		StartUnixNS: 1754600000000000000,
	}
}

func sampleRequests() []Request {
	return []Request{
		{Rel: 1 * time.Millisecond, Latency: 900 * time.Microsecond, Op: "plan", Outcome: "ok", Source: "computed", Spec: 0, Items: 1},
		{Rel: 3 * time.Millisecond, Latency: 120 * time.Microsecond, Op: "plan", Outcome: "ok", Source: "cached", Spec: 1, Items: 1},
		{Rel: 5 * time.Millisecond, Latency: 40 * time.Microsecond, Op: "plan", Outcome: "rejected", Source: "", Spec: 0, Items: 1},
		{Rel: 9 * time.Millisecond, Latency: 2 * time.Millisecond, Op: "plan", Outcome: "error", Source: "", Spec: 1, Items: 1},
	}
}

// record writes a full trace into memory and returns its bytes.
func record(t *testing.T, hdr Header, reqs []Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		rec.Append(&reqs[i])
	}
	if n, errs := rec.Stats(); n != uint64(len(reqs)) || errs != 0 {
		t.Fatalf("recorder stats: %d records, %d errors", n, errs)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceRoundTrip: write → read recovers the header and every request,
// and re-encoding what was read reproduces the file byte-identically —
// the round-trip loses nothing.
func TestTraceRoundTrip(t *testing.T) {
	hdr, reqs := sampleHeader(), sampleRequests()
	raw := record(t, hdr, reqs)

	tr, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Skipped != 0 {
		t.Fatalf("skipped %d records in a clean file", tr.Skipped)
	}
	if tr.Header.Op != hdr.Op || tr.Header.Seed != hdr.Seed ||
		tr.Header.Curve != hdr.Curve || tr.Header.Popularity != hdr.Popularity ||
		len(tr.Header.Specs) != len(hdr.Specs) || tr.Header.Specs[1] != hdr.Specs[1] {
		t.Fatalf("header round-trip: %+v != %+v", tr.Header, hdr)
	}
	if len(tr.Requests) != len(reqs) {
		t.Fatalf("read %d requests, wrote %d", len(tr.Requests), len(reqs))
	}
	for i := range reqs {
		if tr.Requests[i] != reqs[i] {
			t.Fatalf("request %d: %+v != %+v", i, tr.Requests[i], reqs[i])
		}
	}
	if tr.Duration() != reqs[len(reqs)-1].Rel {
		t.Fatalf("duration %s, want %s", tr.Duration(), reqs[len(reqs)-1].Rel)
	}

	// Byte-identical re-encode: requests were written in Rel order, so the
	// sorted read-back serializes to the same bytes.
	again := record(t, tr.Header, tr.Requests)
	if !bytes.Equal(raw, again) {
		t.Fatalf("re-encoded trace differs: %d vs %d bytes", len(raw), len(again))
	}

	// Damage goes through framelog.Scan (its property test sweeps every
	// cut and flip): a torn tail drops the last request uncounted, and a
	// flipped payload byte drops its request counted.
	if tr, err := ReadTrace(bytes.NewReader(raw[:len(raw)-1])); err != nil || tr.Skipped != 0 || len(tr.Requests) != len(reqs)-1 {
		t.Fatalf("torn tail: %+v %v", tr, err)
	}
	frame := 8 + requestPayloadLen
	raw[len(raw)-frame-2] ^= 0xff // inside the third request's payload
	tr, err = ReadTrace(bytes.NewReader(raw))
	if err != nil || tr.Skipped != 1 || len(tr.Requests) != len(reqs)-1 || tr.Requests[2] != reqs[3] {
		t.Fatalf("flipped byte: %+v %v", tr, err)
	}
}

// TestTraceSortsBySchedule: records land on disk in completion order, but
// the replay schedule must come back sorted by issue time.
func TestTraceSortsBySchedule(t *testing.T) {
	reqs := sampleRequests()
	shuffled := []Request{reqs[2], reqs[0], reqs[3], reqs[1]}
	raw := record(t, sampleHeader(), shuffled)
	tr, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tr.Requests); i++ {
		if tr.Requests[i].Rel < tr.Requests[i-1].Rel {
			t.Fatalf("requests not sorted by Rel: %v", tr.Requests)
		}
	}
}

// TestTraceNeedsIntactHeader: a file torn inside the header has no
// schedule to replay, so it is an error, not an empty trace; one torn
// right after the header is an empty trace.
func TestTraceNeedsIntactHeader(t *testing.T) {
	hdr := sampleHeader()
	raw := record(t, hdr, sampleRequests())
	headerLen := len(record(t, hdr, nil))
	for _, cut := range []int{0, 4, 8, headerLen - 1} {
		if _, err := ReadTrace(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("cut at %d inside the header accepted", cut)
		}
	}
	tr, err := ReadTrace(bytes.NewReader(raw[:headerLen]))
	if err != nil || len(tr.Requests) != 0 || tr.Skipped != 0 {
		t.Fatalf("bare header: %v", err)
	}
}

// TestTraceFile: the file-backed path (Create/OpenTrace) round-trips.
func TestTraceFile(t *testing.T) {
	path := t.TempDir() + "/run.trace"
	rec, err := Create(path, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	reqs := sampleRequests()
	for i := range reqs {
		rec.Append(&reqs[i])
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != len(reqs) || tr.Header.Op != "plan" {
		t.Fatalf("file round-trip: %d requests, header %+v", len(tr.Requests), tr.Header)
	}
}
