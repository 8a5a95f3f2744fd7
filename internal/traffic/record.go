package traffic

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/framelog"
	"repro/internal/workload"
)

// Binary request trace: the record half of record/replay. Each record is
// one internal/framelog frame with an empty head —
//
//	[4B little-endian payload length][4B CRC32C of payload][payload]
//
// — so a torn tail (crash or kill mid-write) truncates cleanly and a
// corrupt record is detected, skipped, and counted rather than replayed.
//
// The first frame is a header whose payload is
//
//	u8 version, u8 recType=0, then the Header as JSON
//
// (JSON because the header is one-per-file and wants extensibility more
// than compactness). Every following frame is one request:
//
//	u8  version   u8 recType=1
//	u8  op code   u8 outcome code   u8 source code
//	u32 spec (body index)           u32 items (batch size)
//	u64 rel issue timestamp ns      u64 latency ns
//
// The header carries everything needed to rebuild the identical request
// bodies — the spec catalog, op, batch shape, and seed — so `suuload
// -replay <path>` needs nothing but the file.

const traceVersion = 1

const (
	recTypeHeader  = 0
	recTypeRequest = 1
)

// maxTraceRecord bounds a single frame; longer means corrupt. The header
// embeds the whole spec catalog as JSON, so it gets generous room.
const maxTraceRecord = 1 << 20

// Closed code tables keep request records compact; unknown strings map to
// 0 ("?") rather than failing.
var (
	traceOps      = []string{"?", "plan", "estimate", "plan-batch"}
	traceOutcomes = []string{"?", "ok", "error", "rejected"}
	traceSources  = []string{"", "cached", "computed", "coalesced", "degraded", "batch"}
)

func traceCode(table []string, s string) uint8 {
	for i, v := range table {
		if v == s {
			return uint8(i)
		}
	}
	return 0
}

func traceDecode(table []string, c uint8) string {
	if int(c) < len(table) {
		return table[c]
	}
	return table[0]
}

// Header describes a recorded run: enough to regenerate the exact bodies
// the requests index into, plus the shape labels a summarizer reports.
type Header struct {
	Op          string          `json:"op"`
	Specs       []workload.Spec `json:"specs"`
	BatchSize   int             `json:"batch_size,omitempty"`
	BatchDist   string          `json:"batch_dist,omitempty"`
	Seed        int64           `json:"seed"`
	Curve       string          `json:"curve,omitempty"`
	Popularity  string          `json:"popularity,omitempty"`
	StartUnixNS int64           `json:"start_unix_ns"`
}

// Request is one recorded arrival. Rel is the issue time relative to the
// run start — the replay schedule — and Spec indexes the pre-built body
// pool the Header regenerates (for single ops, the spec catalog itself).
type Request struct {
	Rel     time.Duration
	Latency time.Duration
	Op      string
	Outcome string // ok | error | rejected
	Source  string // serving source from the trace header, "" if untraced
	Spec    uint32
	Items   uint32
}

const requestPayloadLen = 1 + 1 + 3 + 4 + 4 + 8 + 8

// appendRequest encodes one request frame payload.
func appendRequest(b []byte, r *Request) []byte {
	b = append(b, traceVersion, recTypeRequest,
		traceCode(traceOps, r.Op),
		traceCode(traceOutcomes, r.Outcome),
		traceCode(traceSources, r.Source))
	b = binary.LittleEndian.AppendUint32(b, r.Spec)
	b = binary.LittleEndian.AppendUint32(b, r.Items)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Rel))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Latency))
	return b
}

func decodeRequest(b []byte) (Request, bool) {
	var r Request
	if len(b) != requestPayloadLen || b[0] != traceVersion || b[1] != recTypeRequest {
		return r, false
	}
	r.Op = traceDecode(traceOps, b[2])
	r.Outcome = traceDecode(traceOutcomes, b[3])
	r.Source = traceDecode(traceSources, b[4])
	r.Spec = binary.LittleEndian.Uint32(b[5:])
	r.Items = binary.LittleEndian.Uint32(b[9:])
	r.Rel = time.Duration(binary.LittleEndian.Uint64(b[13:]))
	r.Latency = time.Duration(binary.LittleEndian.Uint64(b[21:]))
	return r, true
}

// Recorder appends framed records through its framelog.Writer, which
// supplies the buffering, the once-a-second flush and Close. Append never
// fails the caller: write errors are counted and surfaced by Stats,
// matching the trace log's "recording must never fail a request" contract.
type Recorder struct {
	*framelog.Writer
}

// NewRecorder frames records onto w, writing the header frame first. If w
// is an io.Closer, Close closes it.
func NewRecorder(w io.Writer, hdr Header) (*Recorder, error) {
	hj, err := json.Marshal(&hdr)
	if err != nil {
		return nil, fmt.Errorf("traffic: encoding trace header: %w", err)
	}
	fw := framelog.NewWriter(w)
	fw.Append(nil, append([]byte{traceVersion, recTypeHeader}, hj...))
	if err := fw.Flush(); err != nil {
		return nil, err
	}
	return &Recorder{fw}, nil
}

// Create opens (truncating) a trace file and writes its header.
func Create(path string, hdr Header) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("traffic: creating trace: %w", err)
	}
	rec, err := NewRecorder(f, hdr)
	if err != nil {
		f.Close()
		return nil, err
	}
	return rec, nil
}

// Append records one request.
func (rec *Recorder) Append(r *Request) {
	var scratch [requestPayloadLen]byte
	rec.Writer.Append(nil, appendRequest(scratch[:0], r))
}

// Stats reports requests appended (the header frame excluded) and write
// errors swallowed.
func (rec *Recorder) Stats() (records, errs uint64) {
	st := rec.Writer.Stats()
	return st.Records - 1, st.Errors
}

// Trace is a decoded recording: the header plus every intact request,
// sorted by issue time (records land in completion order on disk; the
// replay schedule wants arrival order).
type Trace struct {
	Header   Header
	Requests []Request
	// Skipped counts complete-but-corrupt frames dropped by the reader;
	// a torn tail is not counted (it is the expected crash artifact).
	Skipped int
}

// ReadTrace decodes a recording. A torn tail ends the scan cleanly; a
// frame with a bad CRC or malformed payload is skipped and counted, and
// so is an implausible length, which ends the scan. The first frame must
// be an intact header — without it the bodies cannot be rebuilt and
// replay would be meaningless.
func ReadTrace(r io.Reader) (*Trace, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	tr := &Trace{}
	sawHeader := false
	var herr error
	_, skipped, serr := framelog.Scan(b, 0, maxTraceRecord, func(_ int, _, payload []byte) {
		if len(payload) < 2 || payload[0] != traceVersion {
			tr.Skipped++
			return
		}
		switch payload[1] {
		case recTypeHeader:
			if sawHeader {
				tr.Skipped++ // duplicate header: keep the first
				return
			}
			if err := json.Unmarshal(payload[2:], &tr.Header); err != nil {
				herr = fmt.Errorf("traffic: decoding trace header: %w", err)
			}
			sawHeader = true
		case recTypeRequest:
			req, ok := decodeRequest(payload)
			if !ok {
				tr.Skipped++
				return
			}
			tr.Requests = append(tr.Requests, req)
		default:
			tr.Skipped++
		}
	})
	if herr != nil {
		return nil, herr
	}
	if !sawHeader {
		return nil, errors.New("traffic: trace has no intact header")
	}
	tr.Skipped += skipped
	if serr == framelog.ErrBadLen {
		tr.Skipped++
	}
	sort.SliceStable(tr.Requests, func(i, j int) bool {
		return tr.Requests[i].Rel < tr.Requests[j].Rel
	})
	return tr, nil
}

// OpenTrace reads a trace file.
func OpenTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("traffic: opening trace: %w", err)
	}
	defer f.Close()
	return ReadTrace(f)
}

// Duration is the recording's issuing window: the last issue timestamp.
func (t *Trace) Duration() time.Duration {
	if len(t.Requests) == 0 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].Rel
}
