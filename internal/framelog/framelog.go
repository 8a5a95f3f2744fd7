// Package framelog is the one record framing under suud's append-only
// logs: the disk store's segments and hinted-handoff files, the trace log
// and the traffic recordings. A frame is
//
//	[len u32 LE][crc32c u32 LE][head][body]
//
// where len = len(body) and the CRC covers head‖body. The head length is
// fixed per log — 16 bytes (the key) for the store, none for the trace
// log and recordings — so it never travels in the frame. The CRC is
// Castagnoli, the checksum SSDs and filesystems use for the same job: it
// catches all single- and double-bit errors and any burst under 32 bits,
// and everything else with probability 1-2⁻³².
//
// A frame is committed exactly when its last byte is written; a shorter
// prefix is a torn tail, the artifact of a crash mid-append. Readers Scan
// a log: a complete frame whose checksum fails is skipped and counted,
// and a torn tail or an implausible length ends the intact framing.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// HeaderSize is the length and checksum fields ahead of a frame's head.
const HeaderSize = 8

var (
	// ErrTorn: b ends before the frame does.
	ErrTorn = errors.New("framelog: torn frame")
	// ErrBadLen: the length field is implausible (over maxBody, or an
	// empty frame), so framing is lost and nothing after it can be trusted.
	ErrBadLen = errors.New("framelog: implausible frame length")
	// ErrBadCRC: the frame is complete but its checksum disagrees.
	ErrBadCRC = errors.New("framelog: checksum mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Size is the framed size of a frame with the given head and body lengths.
func Size(headLen, bodyLen int) int { return HeaderSize + headLen + bodyLen }

// Append encodes one frame onto buf.
func Append(buf, head, body []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, 0, 0, 0, 0)
	buf = append(buf, head...)
	buf = append(buf, body...)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[start+HeaderSize:], castagnoli))
	return buf
}

// Parse reads the frame at the start of b. head and body alias b; n is
// the framed size, set for ErrBadCRC too so a scan can step past it.
func Parse(b []byte, headLen, maxBody int) (head, body []byte, n int, err error) {
	if len(b) < HeaderSize {
		return nil, nil, 0, ErrTorn
	}
	blen := uint64(binary.LittleEndian.Uint32(b[0:4]))
	if blen > uint64(maxBody) || uint64(headLen)+blen == 0 {
		return nil, nil, 0, ErrBadLen
	}
	n = Size(headLen, int(blen))
	if len(b) < n {
		return nil, nil, 0, ErrTorn
	}
	if crc32.Checksum(b[HeaderSize:n], castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, nil, n, ErrBadCRC
	}
	return b[HeaderSize : HeaderSize+headLen], b[HeaderSize+headLen : n], n, nil
}

// Scan walks the frames of b in order and calls fn with each intact
// frame's offset, head and body (aliasing b). A complete frame whose
// checksum fails is skipped and counted in skipped. A torn tail or an
// implausible length stops the scan: end is the offset where the intact
// framing ends and err (ErrTorn or ErrBadLen) says why; err is nil and
// end is len(b) when every byte was framed.
func Scan(b []byte, headLen, maxBody int, fn func(off int, head, body []byte)) (end, skipped int, err error) {
	for end < len(b) {
		head, body, n, perr := Parse(b[end:], headLen, maxBody)
		switch perr {
		case nil:
			fn(end, head, body)
		case ErrBadCRC:
			skipped++
		default:
			return end, skipped, perr
		}
		end += n
	}
	return end, skipped, nil
}

// flushInterval bounds how stale the underlying writer can be while
// frames sit in the buffer: an operator tailing a log sees a record
// within about a second, not whenever 32 KB of them have accumulated.
const flushInterval = time.Second

// Writer appends frames to an io.Writer behind a mutex and a 32 KB
// buffer, flushing at most once a second from Append. Write errors are
// counted, never returned by Append: a record log must never fail the
// request it records.
type Writer struct {
	mu        sync.Mutex
	w         *bufio.Writer
	c         io.Closer
	buf       []byte
	lastFlush time.Time

	records, bytes, errs atomic.Uint64
}

// NewWriter wraps w; if w is also an io.Closer, Close closes it.
func NewWriter(w io.Writer) *Writer {
	fw := &Writer{w: bufio.NewWriterSize(w, 1<<15)}
	if c, ok := w.(io.Closer); ok {
		fw.c = c
	}
	return fw
}

// Append writes one frame. It encodes into a scratch buffer the writer
// keeps, so a steady stream of records allocates nothing.
func (fw *Writer) Append(head, body []byte) {
	fw.mu.Lock()
	fw.buf = Append(fw.buf[:0], head, body)
	n := len(fw.buf)
	_, err := fw.w.Write(fw.buf)
	if now := time.Now(); now.Sub(fw.lastFlush) >= flushInterval {
		fw.lastFlush = now
		if ferr := fw.w.Flush(); err == nil {
			err = ferr
		}
	}
	fw.mu.Unlock()
	if err != nil {
		fw.errs.Add(1)
		return
	}
	fw.records.Add(1)
	fw.bytes.Add(uint64(n))
}

// Flush pushes buffered frames to the underlying writer.
func (fw *Writer) Flush() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.w.Flush()
}

// Close flushes and closes the underlying writer if it is closable.
func (fw *Writer) Close() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	err := fw.w.Flush()
	if fw.c != nil {
		if cerr := fw.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats is a Writer's ledger: frames written, their framed bytes, and
// appends that failed.
type Stats struct {
	Records uint64 `json:"records"`
	Bytes   uint64 `json:"bytes"`
	Errors  uint64 `json:"errors"`
}

// Stats snapshots the writer's counters.
func (fw *Writer) Stats() Stats {
	return Stats{Records: fw.records.Load(), Bytes: fw.bytes.Load(), Errors: fw.errs.Load()}
}
