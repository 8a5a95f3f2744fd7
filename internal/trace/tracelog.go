package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/framelog"
)

// Binary trace log: the record half of record/replay. Each record is one
// internal/framelog frame with an empty head —
//
//	[4B little-endian payload length][4B CRC32C of payload][payload]
//
// — so a torn tail (crash mid-write) truncates cleanly and a corrupt
// record is detected, skipped, and counted rather than served.
//
// Payload layout (version 1, little-endian):
//
//	u8  version
//	u8  op code        u8 outcome code   u8 source code
//	u64 id.Hi          u64 id.Lo
//	u64 fp.Hi          u64 fp.Lo
//	i64 start unixnano i64 total ns
//	u8  nstages, then per stage: u8 stage, u32 count, i64 dur ns

const logVersion = 1

// Small closed code tables keep records compact; unknown strings map
// to 0 ("?") rather than failing.
var opCodes = []string{"?", "plan", "estimate", "batch"}
var outcomeCodes = []string{"?", OutcomeOK, OutcomeError, OutcomeRejected, OutcomeCanceled}
var sourceCodes = []string{"", "cached", "computed", "coalesced", "degraded", "batch"}

func code(table []string, s string) uint8 {
	for i, v := range table {
		if v == s {
			return uint8(i)
		}
	}
	return 0
}

func decode(table []string, c uint8) string {
	if int(c) < len(table) {
		return table[c]
	}
	return table[0]
}

// maxLogRecord bounds a single record; anything longer is corrupt.
const maxLogRecord = 4096

// logRecordMax is the longest record Append encodes: every stage present.
const logRecordMax = 53 + 13*NumStages

// LogWriter appends trace records through its framelog.Writer, which
// supplies the buffering, the once-a-second flush, Flush, Close and the
// Stats ledger.
type LogWriter struct {
	*framelog.Writer
}

// NewLogWriter wraps w; if w is also an io.Closer, Close closes it.
func NewLogWriter(w io.Writer) *LogWriter {
	return &LogWriter{framelog.NewWriter(w)}
}

// OpenLog opens (creating or appending) a trace log file.
func OpenLog(path string) (*LogWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trace: opening log: %w", err)
	}
	return NewLogWriter(f), nil
}

// Append writes one record. Errors are counted, not returned — the
// trace log must never fail a request.
func (lw *LogWriter) Append(rec *Record) {
	var scratch [logRecordMax]byte
	lw.Writer.Append(nil, appendLogRecord(scratch[:0], rec))
}

func appendLogRecord(b []byte, rec *Record) []byte {
	b = append(b, logVersion,
		code(opCodes, rec.Op),
		code(outcomeCodes, rec.Outcome),
		code(sourceCodes, rec.Source))
	b = binary.LittleEndian.AppendUint64(b, rec.ID.Hi)
	b = binary.LittleEndian.AppendUint64(b, rec.ID.Lo)
	b = binary.LittleEndian.AppendUint64(b, rec.FPHi)
	b = binary.LittleEndian.AppendUint64(b, rec.FPLo)
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.Start))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.TotalNS))
	nstages := 0
	for i := 0; i < NumStages; i++ {
		if rec.Counts[i] > 0 {
			nstages++
		}
	}
	b = append(b, uint8(nstages))
	for i := 0; i < NumStages; i++ {
		if rec.Counts[i] == 0 {
			continue
		}
		b = append(b, uint8(i))
		b = binary.LittleEndian.AppendUint32(b, rec.Counts[i])
		b = binary.LittleEndian.AppendUint64(b, uint64(rec.Durs[i]))
	}
	return b
}

// LogStats snapshots the writer's ledger: records, framed bytes, errors.
type LogStats = framelog.Stats

// ReadLog decodes every intact record from r. A torn tail ends the scan
// cleanly; a complete record with a bad CRC or malformed payload is
// skipped and counted, and so is an implausible length, which ends the
// scan. Returns the records, the number skipped, and any read error.
func ReadLog(r io.Reader) (recs []Record, skipped int, err error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, err
	}
	malformed := 0
	_, skipped, serr := framelog.Scan(b, 0, maxLogRecord, func(_ int, _, payload []byte) {
		if rec, ok := decodeLogRecord(payload); ok {
			recs = append(recs, rec)
		} else {
			malformed++
		}
	})
	if serr == framelog.ErrBadLen {
		skipped++
	}
	return recs, skipped + malformed, nil
}

func decodeLogRecord(b []byte) (Record, bool) {
	var rec Record
	if len(b) < 53 || b[0] != logVersion {
		return rec, false
	}
	rec.Op = decode(opCodes, b[1])
	rec.Outcome = decode(outcomeCodes, b[2])
	rec.Source = decode(sourceCodes, b[3])
	rec.ID.Hi = binary.LittleEndian.Uint64(b[4:])
	rec.ID.Lo = binary.LittleEndian.Uint64(b[12:])
	rec.FPHi = binary.LittleEndian.Uint64(b[20:])
	rec.FPLo = binary.LittleEndian.Uint64(b[28:])
	rec.Start = int64(binary.LittleEndian.Uint64(b[36:]))
	rec.TotalNS = int64(binary.LittleEndian.Uint64(b[44:]))
	nstages := int(b[52])
	off := 53
	for i := 0; i < nstages; i++ {
		if off+13 > len(b) {
			return rec, false
		}
		st := int(b[off])
		if st >= NumStages {
			return rec, false
		}
		rec.Counts[st] = binary.LittleEndian.Uint32(b[off+1:])
		rec.Durs[st] = int64(binary.LittleEndian.Uint64(b[off+5:]))
		off += 13
	}
	return rec, off == len(b)
}
