package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/framelog"
)

// errHandoffFull rejects a hint past the per-peer queue cap.
var errHandoffFull = errors.New("store: handoff queue full")

// handoffQueue is one peer's hinted-handoff backlog: writes that should
// have replicated to the peer while it was down, held until the drain
// loop delivers them. The queue lives in memory and, when dir is set,
// appends through to a per-peer file in the segment layout so a
// restart re-queues undelivered hints. Delivery is at-least-once —
// content addressing makes redelivery a no-op — and the file only resets
// once the whole backlog has drained, so a crash mid-drain re-delivers
// rather than loses.
type handoffQueue struct {
	mu    sync.Mutex
	items []fanoutItem
	head  int // items[:head] are delivered, awaiting the file reset
	cap   int
	path  string // "" = memory only
	f     *os.File
}

// openHandoffQueue loads (or creates) peer's queue under dir.
func openHandoffQueue(dir, peer string, capacity int) (*handoffQueue, error) {
	hq := &handoffQueue{cap: capacity}
	if dir == "" {
		return hq, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(peer))
	hq.path = filepath.Join(dir, fmt.Sprintf("handoff-%016x.log", h.Sum64()))
	buf, err := os.ReadFile(hq.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(hq.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	hq.f = f
	if len(buf) < len(segMagic) || string(buf[:len(segMagic)]) != segMagic {
		if err := hq.resetFile(); err != nil {
			f.Close()
			return nil, err
		}
		return hq, nil
	}
	// Replay undelivered hints. A corrupt hint is skipped and the intact
	// ones after it still replay; a torn tail or lost framing ends the
	// replay and is cut off (hints are best-effort — losing one costs a
	// read-through later).
	end, _, _ := framelog.Scan(buf[len(segMagic):], keyHeadLen, maxPayload, func(_ int, head, body []byte) {
		hq.items = append(hq.items, fanoutItem{k: headKey(head), v: bytes.Clone(body)})
	})
	if err := f.Truncate(int64(len(segMagic) + end)); err != nil {
		f.Close()
		return nil, err
	}
	return hq, nil
}

func (hq *handoffQueue) resetFile() error {
	if hq.f == nil {
		return nil
	}
	if err := hq.f.Truncate(0); err != nil {
		return err
	}
	_, err := hq.f.WriteAt([]byte(segMagic), 0)
	return err
}

// enqueue appends a hint, rejecting past the cap. Duplicate keys are
// collapsed — re-delivering the same content twice is pointless.
func (hq *handoffQueue) enqueue(k Key, v []byte) error {
	hq.mu.Lock()
	defer hq.mu.Unlock()
	for _, it := range hq.items[hq.head:] {
		if it.k == k {
			return nil
		}
	}
	if len(hq.items)-hq.head >= hq.cap {
		return errHandoffFull
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	hq.items = append(hq.items, fanoutItem{k: k, v: cp})
	if hq.f != nil {
		// Best-effort append at the logical end of the file. File offset
		// bookkeeping: the file holds every item in hq.items (delivered
		// head included, until the reset), in order.
		if st, err := hq.f.Stat(); err == nil {
			hq.f.WriteAt(frameRecord(k, cp), st.Size())
		}
	}
	return nil
}

// peek returns the oldest undelivered hint.
func (hq *handoffQueue) peek() (Key, []byte, bool) {
	hq.mu.Lock()
	defer hq.mu.Unlock()
	if hq.head >= len(hq.items) {
		return Key{}, nil, false
	}
	it := hq.items[hq.head]
	return it.k, it.v, true
}

// pop marks the oldest hint delivered; when the backlog empties the
// backing file resets in one truncate (the crash-safe point — before it,
// a restart re-delivers everything, which is harmless).
func (hq *handoffQueue) pop() {
	hq.mu.Lock()
	defer hq.mu.Unlock()
	if hq.head < len(hq.items) {
		hq.head++
	}
	if hq.head == len(hq.items) {
		hq.items = hq.items[:0]
		hq.head = 0
		hq.resetFile()
	}
}

// depth is the undelivered count.
func (hq *handoffQueue) depth() int {
	hq.mu.Lock()
	defer hq.mu.Unlock()
	return len(hq.items) - hq.head
}

func (hq *handoffQueue) close() error {
	hq.mu.Lock()
	defer hq.mu.Unlock()
	if hq.f == nil {
		return nil
	}
	hq.f.Sync()
	err := hq.f.Close()
	hq.f = nil
	return err
}
