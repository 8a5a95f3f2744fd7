package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/trace"
)

// Zero-copy serving: the response LRU, the flight table, and the durable
// store all move cachedFrame values — the canonical decoded response
// paired with its compact wire encoding, produced exactly once (at compute
// time, or at store-decode time where the envelope already carries the
// bytes). Serving a hit is then a byte splice into the response, never a
// re-encode: the frame is shared read-only by every caller that hits it.
//
// The canonical payload frame is json.Marshal of the response struct with
// the serving flags (Cached, Coalesced) false — exactly the encoding batch
// item payloads have always used, byte-stable across the single endpoint,
// the batch endpoint, and the store tiers.

// frameTail is the canonical frame's closing bytes: Cached is the last
// always-encoded field of both PlanResponse and EstimateResponse, and the
// canonical value is false (Coalesced and Degraded are omitempty and false
// in anything cached). Splicing a hit's serving flags replaces this tail
// in place of re-encoding the payload.
const frameTail = `"cached":false}`

// cachedFrame pairs a canonical response with its pre-encoded payload
// frame. Both are shared between callers and must be treated as immutable.
type cachedFrame struct {
	val   any    // *PlanResponse or *EstimateResponse, serving flags false
	frame []byte // canonical compact JSON encoding of val
	// splice is the offset of frameTail within frame, or -1 when the tail
	// is not where the canonical encoder puts it (degraded payloads, or a
	// future field reorder) — such frames are served verbatim or fall back
	// to a flag-bearing re-encode.
	splice int
}

// newCachedFrame wraps an already-encoded canonical frame.
func newCachedFrame(v any, frame []byte) *cachedFrame {
	cf := &cachedFrame{val: v, frame: frame, splice: len(frame) - len(frameTail)}
	if cf.splice < 0 || string(frame[cf.splice:]) != frameTail {
		cf.splice = -1
	}
	return cf
}

// encodeFrame produces the canonical frame for a freshly built response —
// the one cold encode a cacheable payload ever gets. Metered as one
// encode stage span, whose count is /metrics' cold_encodes.
func (p *Planner) encodeFrame(v any, tc *trace.Ctx) (*cachedFrame, error) {
	start := time.Now()
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	p.obsStage(tc, trace.StageEncode, start)
	return newCachedFrame(v, b), nil
}

// served is how a resolved request travels to the HTTP layer: the shared
// frame plus the serving flags that belong to this caller's envelope, not
// to the canonical payload.
type served struct {
	cf        *cachedFrame
	cached    bool
	coalesced bool
}

// planResponse materializes the struct view of a served plan for library
// callers, copying only when a serving flag must differ from the
// canonical (flags-false) value.
func (sv served) planResponse() *PlanResponse {
	resp := sv.cf.val.(*PlanResponse)
	if !sv.cached && !sv.coalesced {
		return resp
	}
	c := *resp
	c.Cached, c.Coalesced = sv.cached, sv.coalesced
	return &c
}

// estimateResponse is planResponse for estimates.
func (sv served) estimateResponse() *EstimateResponse {
	resp := sv.cf.val.(*EstimateResponse)
	if !sv.cached && !sv.coalesced {
		return resp
	}
	c := *resp
	c.Cached, c.Coalesced = sv.cached, sv.coalesced
	return &c
}

// appendServed writes the payload with this caller's serving flags spliced
// into the canonical frame: the frame bytes are shared, never mutated, and
// only the constant-size tail differs between callers. Flags-false serves
// (computed, degraded) copy the frame verbatim.
func appendServed(buf *bytes.Buffer, sv served) {
	cf := sv.cf
	if !sv.cached && !sv.coalesced {
		buf.Write(cf.frame)
		return
	}
	if cf.splice < 0 {
		// The tail is not where the splice expects it; re-encode with the
		// flags set rather than emit a corrupt document. Unreachable for
		// frames the canonical encoder produced.
		var b []byte
		switch v := cf.val.(type) {
		case *PlanResponse:
			c := *v
			c.Cached, c.Coalesced = sv.cached, sv.coalesced
			b, _ = json.Marshal(&c)
		case *EstimateResponse:
			c := *v
			c.Cached, c.Coalesced = sv.cached, sv.coalesced
			b, _ = json.Marshal(&c)
		}
		buf.Write(b)
		return
	}
	buf.Write(cf.frame[:cf.splice])
	if sv.cached {
		buf.WriteString(`"cached":true}`)
	} else {
		buf.WriteString(`"cached":false,"coalesced":true}`)
	}
}

// maxPooledBuf bounds what goes back into the buffer pool: one huge
// response (a near-cap instance is megabytes of JSON) must not pin its
// scratch forever under steady small-response traffic.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// bufioPool holds the batch envelope writers: batch responses stream item
// frames through a fixed-size buffer instead of materializing the whole
// document, so the response's memory cost is bounded by this buffer, not
// by the batch size.
var bufioPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, 32<<10) }}

func getBufio(w io.Writer) *bufio.Writer {
	bw := bufioPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func putBufio(bw *bufio.Writer) {
	bw.Reset(io.Discard) // drop the ResponseWriter reference before pooling
	bufioPool.Put(bw)
}
