package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func sampleRecord(i int) Record {
	rec := Record{
		ID:      ID{Hi: uint64(i) + 1, Lo: uint64(i) * 7},
		Start:   1700000000e9 + int64(i),
		Op:      "plan",
		Outcome: OutcomeOK,
		Source:  "computed",
		FPHi:    0xfeed, FPLo: uint64(i),
		TotalNS: int64(i+1) * 1000,
	}
	rec.Durs[StageDecode] = 100
	rec.Counts[StageDecode] = 1
	rec.Durs[StageSolve] = int64(i) * 50
	rec.Counts[StageSolve] = uint32(i%3) + 1
	if i%4 == 3 {
		rec.Outcome = OutcomeError
		rec.Source = ""
	}
	return rec
}

func TestLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	const n = 25
	for i := 0; i < n; i++ {
		rec := sampleRecord(i)
		lw.Append(&rec)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	st := lw.Stats()
	if st.Records != n || st.Errors != 0 || st.Bytes != uint64(buf.Len()) {
		t.Fatalf("writer stats %+v, buffer %d bytes", st, buf.Len())
	}
	recs, skipped, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil || skipped != 0 {
		t.Fatalf("ReadLog err=%v skipped=%d", err, skipped)
	}
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	for i, got := range recs {
		want := sampleRecord(i)
		if got != want {
			t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}

	// Damage goes through framelog.Scan (its property test sweeps every
	// cut and flip): a torn tail drops the last record uncounted, and a
	// flipped payload byte drops its record counted.
	raw := buf.Bytes()
	if recs, skipped, err := ReadLog(bytes.NewReader(raw[:len(raw)-1])); err != nil || skipped != 0 || len(recs) != n-1 {
		t.Fatalf("torn tail: recs=%d skipped=%d err=%v", len(recs), skipped, err)
	}
	raw[20] ^= 0xff // inside the first record's payload
	if recs, skipped, err := ReadLog(bytes.NewReader(raw)); err != nil || skipped != 1 || len(recs) != n-1 || recs[0] != sampleRecord(1) {
		t.Fatalf("flipped byte: recs=%d skipped=%d err=%v", len(recs), skipped, err)
	}
}

func TestLogGarbageLengthStopsScan(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	rec := sampleRecord(0)
	lw.Append(&rec)
	lw.Flush()
	raw := append([]byte(nil), buf.Bytes()...)
	raw = append(raw, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4) // absurd length
	recs, skipped, err := ReadLog(bytes.NewReader(raw))
	if err != nil || len(recs) != 1 || skipped != 1 {
		t.Fatalf("recs=%d skipped=%d err=%v", len(recs), skipped, err)
	}
}

func TestOpenLogAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.log")
	for round := 0; round < 2; round++ {
		lw, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		rec := sampleRecord(round)
		lw.Append(&rec)
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, skipped, err := ReadLog(f)
	if err != nil || skipped != 0 || len(recs) != 2 {
		t.Fatalf("recs=%d skipped=%d err=%v", len(recs), skipped, err)
	}
}
