package traffic

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestTraceFormatGolden pins the bytes of a recording with one header
// frame and one request frame, each [len u32][crc32c u32][payload] with
// the payloads documented in record.go. Any change here makes existing
// recordings unreadable.
func TestTraceFormatGolden(t *testing.T) {
	hdr := Header{
		Op:          "plan",
		Specs:       []workload.Spec{{Family: "uniform", M: 2, N: 3, Seed: 5}},
		Seed:        7,
		StartUnixNS: 1754600000000000000,
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	rec.Append(&Request{
		Rel: 3 * time.Millisecond, Latency: 250 * time.Microsecond,
		Op: "plan", Outcome: "ok", Source: "cached", Spec: 0, Items: 1,
	})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	const want = "70000000" + "ab39bdb4" + "0100" + // header: len, crc32c, version, type
		"7b226f70223a22706c616e222c227370656373223a5b7b2266616d696c79223a2275" +
		"6e69666f726d222c226d223a322c226e223a332c2273656564223a357d5d2c227365" +
		"6564223a372c2273746172745f756e69785f6e73223a313735343630303030303030" +
		"303030303030307d" + // header JSON
		"1d000000" + "2a074ced" + "0101" + // request: len, crc32c, version, type
		"010101" + "00000000" + "01000000" + // op, outcome, source, spec, items
		"c0c62d0000000000" + "90d0030000000000" // rel, latency
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("recording bytes changed:\n got %s\nwant %s", got, want)
	}
}
