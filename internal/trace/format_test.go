package trace

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// TestLogFormatGolden pins the bytes of one trace-log record: the frame
// [len u32][crc32c u32] and the version-1 payload documented in
// tracelog.go. Any change here makes existing trace logs unreadable.
func TestLogFormatGolden(t *testing.T) {
	rec := Record{
		ID:      ID{Hi: 0x1111222233334444, Lo: 0x5555666677778888},
		Start:   1700000000123456789,
		Op:      "estimate",
		Outcome: OutcomeOK,
		Source:  "coalesced",
		FPHi:    0xaabbccddeeff0011,
		FPLo:    0x2233445566778899,
		TotalNS: 4321000,
	}
	rec.Counts[StageDecode], rec.Durs[StageDecode] = 1, 12000
	rec.Counts[StageSolve], rec.Durs[StageSolve] = 3, 4000000
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	lw.Append(&rec)
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	const want = "4f000000" + "1362731c" + // len, crc32c
		"01020103" + // version, op, outcome, source
		"4444333322221111" + "8888777766665555" + // id
		"1100ffeeddccbbaa" + "9988776655443322" + // fingerprint
		"15cd853dfe9c9717" + "e8ee410000000000" + // start, total
		"02" + "00" + "01000000" + "e02e000000000000" + // 2 stages: decode
		"07" + "03000000" + "00093d0000000000" // solve
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("trace-log bytes changed:\n got %s\nwant %s", got, want)
	}
}
