package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/framelog"
)

// FsyncPolicy says when the disk store makes appended records durable.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every committed record: a record that Put
	// returned nil for survives power loss. Slowest; the safe default
	// for anything that cares about machine crashes.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a timer (default 100ms): an OS crash can
	// lose the last interval's records, never corrupt older ones.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves flushing to the OS: a process crash loses
	// nothing (the page cache survives), a machine crash loses unsynced
	// tails. The rebuild's torn-tail truncation makes even that safe.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy maps a flag string to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	case "":
		return FsyncInterval, nil
	}
	return "", fmt.Errorf("store: unknown fsync policy %q (want always|interval|never)", s)
}

// DiskConfig configures Open.
type DiskConfig struct {
	Fsync         FsyncPolicy   // default FsyncInterval
	FsyncInterval time.Duration // default 100ms
	// SegmentBytes rolls the active segment once it exceeds this size
	// (default 8 MiB). Compaction granularity, not a correctness knob.
	SegmentBytes int64
	// CompactBytes arms auto-compaction: once total log bytes exceed it
	// and more than half are dead (quarantined or superseded), Put
	// compacts inline. 0 means auto-compaction off (Compact still works).
	CompactBytes int64
	// WriteFault, when set, intercepts every record append for fault
	// injection: it returns how many of the framed bytes to actually
	// write and an error to surface. The partial bytes ARE written —
	// that is the point: a torn write leaves a torn tail on disk.
	WriteFault func(rec []byte) (int, error)
	// ReadFault, when set, may mutate the freshly-read record bytes
	// before checksum verification — bit flips and short reads land here.
	ReadFault func(b []byte)
}

// Disk is the durable backend: an append-only segment log under one
// directory, framed by internal/framelog (layout in record.go). Open
// rebuilds the full key index by scanning every segment, truncating torn
// tails and counting (never dying on) corrupt records, so a store that
// was killed mid-write always reopens to exactly its committed prefix.
type Disk struct {
	dir string
	cfg DiskConfig

	mu       sync.RWMutex // guards index, segs, sizes, dirty, closed
	index    map[Key]recLoc
	segs     map[int]*segment
	activeID int
	live     int64 // framed bytes reachable from the index
	total    int64 // bytes on disk, dead records and headers included
	dirty    bool  // unsynced appends (interval policy)
	closed   bool

	puts, putSkips, putErrors atomic.Uint64
	hits, misses              atomic.Uint64
	corruptDropped            atomic.Uint64
	compactions               atomic.Uint64

	stopSync chan struct{}
	syncDone chan struct{}
}

type recLoc struct {
	seg int
	off int64
	n   int64
}

type segment struct {
	id   int
	f    *os.File
	size int64
	torn bool // a failed append left bytes past size
}

func segName(id int) string { return fmt.Sprintf("seg-%06d.log", id) }

// Open rebuilds a Disk store from dir, creating it if needed. The scan is
// the recovery path: per segment, records parse in order until the first
// torn frame (truncated away, counted once — some bytes of it were on
// disk) or implausible length (framing lost, the rest of the segment is
// truncated, counted once); a complete frame with a bad checksum is
// skipped and counted, and the scan continues at the next frame.
func Open(dir string, cfg DiskConfig) (*Disk, error) {
	if cfg.Fsync == "" {
		cfg.Fsync = FsyncInterval
	}
	if cfg.FsyncInterval <= 0 {
		cfg.FsyncInterval = 100 * time.Millisecond
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 8 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &Disk{
		dir:      dir,
		cfg:      cfg,
		index:    make(map[Key]recLoc),
		segs:     make(map[int]*segment),
		stopSync: make(chan struct{}),
		syncDone: make(chan struct{}),
	}
	ids, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := d.scanSegment(id); err != nil {
			d.closeFiles()
			return nil, err
		}
	}
	if len(ids) > 0 && d.segs[ids[len(ids)-1]] != nil {
		d.activeID = ids[len(ids)-1]
	} else if err := d.rollLocked(); err != nil {
		d.closeFiles()
		return nil, err
	}
	if cfg.Fsync == FsyncInterval {
		go d.syncLoop()
	} else {
		close(d.syncDone)
	}
	return d, nil
}

func listSegments(dir string) ([]int, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, de := range names {
		n := de.Name()
		if !strings.HasPrefix(n, "seg-") || !strings.HasSuffix(n, ".log") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(n, "seg-"), ".log"))
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// scanSegment replays one segment into the index. Duplicate keys keep the
// first location seen — values are content-addressed, so any copy is the
// right copy, and a crash between compaction's copy and its delete just
// leaves content-identical duplicates.
func (d *Disk) scanSegment(id int) error {
	path := filepath.Join(d.dir, segName(id))
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	seg := &segment{id: id, f: f}
	if len(buf) < len(segMagic) {
		// Torn before the header finished: no record was ever committed
		// here, so resetting to an empty segment loses nothing.
		if err := d.resetSegment(seg); err != nil {
			f.Close()
			return err
		}
		d.segs[id] = seg
		d.total += seg.size
		return nil
	}
	if string(buf[:len(segMagic)]) != segMagic {
		// Not our file format: move the whole file out of the scan path
		// rather than guess at its framing.
		f.Close()
		d.corruptDropped.Add(1)
		return os.Rename(path, path+".bad")
	}
	end, skipped, serr := framelog.Scan(buf[len(segMagic):], keyHeadLen, maxPayload, func(off int, head, body []byte) {
		k := headKey(head)
		if _, dup := d.index[k]; !dup {
			n := int64(framelog.Size(keyHeadLen, len(body)))
			d.index[k] = recLoc{seg: id, off: int64(len(segMagic) + off), n: n}
			d.live += n
		}
	})
	d.corruptDropped.Add(uint64(skipped))
	seg.size = int64(len(segMagic) + end)
	if serr != nil { // a torn tail or lost framing: cut it off
		d.corruptDropped.Add(1)
		if err := f.Truncate(seg.size); err != nil {
			f.Close()
			return err
		}
	}
	d.segs[id] = seg
	d.total += seg.size
	return nil
}

// resetSegment truncates seg to a bare magic header.
func (d *Disk) resetSegment(seg *segment) error {
	if err := seg.f.Truncate(0); err != nil {
		return err
	}
	if _, err := seg.f.WriteAt([]byte(segMagic), 0); err != nil {
		return err
	}
	seg.size = int64(len(segMagic))
	return nil
}

// rollLocked creates a fresh active segment with the next unused id.
func (d *Disk) rollLocked() error {
	id := d.activeID + 1
	for d.segs[id] != nil {
		id++
	}
	seg, err := d.newSegment(id)
	if err != nil {
		return err
	}
	d.segs[id] = seg
	d.activeID = id
	d.total += seg.size
	return nil
}

func (d *Disk) newSegment(id int) (*segment, error) {
	f, err := os.OpenFile(filepath.Join(d.dir, segName(id)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return nil, err
	}
	return &segment{id: id, f: f, size: int64(len(segMagic))}, nil
}

// Name implements PlanStore.
func (d *Disk) Name() string { return "disk" }

// Get implements PlanStore: locate, read, re-verify the checksum. A
// record that fails verification at read time (latent bit rot) is
// quarantined on the spot — dropped from the index, counted, reported as
// a miss — so a corrupt byte can surface as a recompute but never as a
// wrong answer.
func (d *Disk) Get(_ context.Context, k Key) ([]byte, string, error) {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return nil, "", ErrClosed
	}
	loc, ok := d.index[k]
	if !ok {
		d.mu.RUnlock()
		d.misses.Add(1)
		return nil, "", ErrNotFound
	}
	// The read happens under RLock so compaction (which holds the write
	// lock while it closes and deletes segment files) cannot race it.
	seg := d.segs[loc.seg]
	buf := make([]byte, loc.n)
	_, err := seg.f.ReadAt(buf, loc.off)
	if err == nil && d.cfg.ReadFault != nil {
		d.cfg.ReadFault(buf)
	}
	var payload []byte
	if err == nil {
		payload, err = parseRecord(buf, k)
	}
	d.mu.RUnlock()
	if err != nil {
		d.quarantine(k, loc)
		return nil, "", ErrNotFound
	}
	d.hits.Add(1)
	return payload, TierDisk, nil
}

// quarantine drops k from the index after a failed read-time verify.
func (d *Disk) quarantine(k Key, loc recLoc) {
	d.mu.Lock()
	if cur, ok := d.index[k]; ok && cur == loc {
		delete(d.index, k)
		d.live -= loc.n
		d.corruptDropped.Add(1)
	}
	d.mu.Unlock()
	d.misses.Add(1)
}

// GetLocal implements PlanStore; disk is always local.
func (d *Disk) GetLocal(ctx context.Context, k Key) ([]byte, string, error) {
	return d.Get(ctx, k)
}

// Put implements PlanStore: append one framed record to the active
// segment, then apply the fsync policy. Idempotent on a present key.
func (d *Disk) Put(_ context.Context, k Key, v []byte) error {
	if len(v) > maxPayload {
		return fmt.Errorf("store: payload %d exceeds max %d", len(v), maxPayload)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if _, ok := d.index[k]; ok {
		d.putSkips.Add(1)
		return nil
	}
	if seg := d.segs[d.activeID]; seg.size >= d.cfg.SegmentBytes {
		if err := d.rollLocked(); err != nil {
			d.putErrors.Add(1)
			return err
		}
	}
	seg := d.segs[d.activeID]
	rec := frameRecord(k, v)
	wn := len(rec)
	var werr error
	if d.cfg.WriteFault != nil {
		wn, werr = d.cfg.WriteFault(rec)
		if wn > len(rec) {
			wn = len(rec)
		}
	}
	n, err := seg.f.WriteAt(rec[:wn], seg.size)
	if werr == nil {
		werr = err
	}
	if werr == nil && n < len(rec) {
		werr = fmt.Errorf("store: short write (%d of %d bytes)", n, len(rec))
	}
	if werr != nil {
		// A failed append is never indexed and does not advance the
		// segment: its partial frame stays on disk as a torn tail (exactly
		// what a crash leaves, and the next Open truncates it) until the
		// next append overwrites it in place and cuts off what is left.
		// Appending after it instead would bury it mid-segment, where a
		// reopen reads its length across every later record.
		d.putErrors.Add(1)
		seg.torn = seg.torn || n > 0
		return werr
	}
	rn := int64(len(rec))
	d.index[k] = recLoc{seg: seg.id, off: seg.size, n: rn}
	seg.size += rn
	d.total += rn
	d.live += rn
	if seg.torn && seg.f.Truncate(seg.size) == nil {
		seg.torn = false
	}
	d.puts.Add(1)
	switch d.cfg.Fsync {
	case FsyncAlways:
		if err := seg.f.Sync(); err != nil {
			d.putErrors.Add(1)
			return err
		}
	case FsyncInterval:
		d.dirty = true
	}
	if d.cfg.CompactBytes > 0 && d.total > d.cfg.CompactBytes && d.total-d.live > d.total/2 {
		return d.compactLocked()
	}
	return nil
}

// PutLocal implements PlanStore.
func (d *Disk) PutLocal(ctx context.Context, k Key, v []byte) error {
	return d.Put(ctx, k, v)
}

// Keys implements PlanStore.
func (d *Disk) Keys(limit int) []Key {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Key, 0, len(d.index))
	for k := range d.index {
		out = append(out, k)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Compact rewrites all live records into fresh segments and deletes the
// old files. Crash-safe by construction: the copies are written and
// synced before any delete, and a crash in between leaves harmless
// content-identical duplicates for the next scan to dedupe.
func (d *Disk) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.compactLocked()
}

func (d *Disk) compactLocked() error {
	// Stage 1: read back every live record, verifying it as Get does
	// (rot found here is quarantined like any read-time failure).
	type liveRec struct {
		k   Key
		rec []byte
	}
	recs := make([]liveRec, 0, len(d.index))
	for k, loc := range d.index {
		buf := make([]byte, loc.n)
		if _, err := d.segs[loc.seg].f.ReadAt(buf, loc.off); err != nil {
			d.corruptDropped.Add(1)
			continue
		}
		if _, err := parseRecord(buf, k); err != nil {
			d.corruptDropped.Add(1)
			continue
		}
		recs = append(recs, liveRec{k: k, rec: buf})
	}
	// Stage 2: write the survivors into brand-new segments, entirely off
	// to the side — the store's visible state is untouched until the new
	// files are durable, so any error here aborts with nothing lost.
	newSegs := make(map[int]*segment)
	newIndex := make(map[Key]recLoc, len(recs))
	var newLive, newTotal int64
	nextID := d.activeID
	abort := func(err error) error {
		for id, seg := range newSegs {
			seg.f.Close()
			os.Remove(filepath.Join(d.dir, segName(id)))
		}
		return err
	}
	roll := func() (*segment, error) {
		nextID++
		for d.segs[nextID] != nil || newSegs[nextID] != nil {
			nextID++
		}
		seg, err := d.newSegment(nextID)
		if err != nil {
			return nil, err
		}
		newSegs[nextID] = seg
		newTotal += seg.size
		return seg, nil
	}
	seg, err := roll()
	if err != nil {
		return abort(err)
	}
	for _, lr := range recs {
		if seg.size >= d.cfg.SegmentBytes {
			if seg, err = roll(); err != nil {
				return abort(err)
			}
		}
		n, err := seg.f.WriteAt(lr.rec, seg.size)
		seg.size += int64(n)
		newTotal += int64(n)
		if err != nil {
			return abort(err)
		}
		newIndex[lr.k] = recLoc{seg: seg.id, off: seg.size - int64(n), n: int64(n)}
		newLive += int64(n)
	}
	for _, s := range newSegs {
		if err := s.f.Sync(); err != nil {
			return abort(err)
		}
	}
	// Stage 3, the point of no return: the new segments are durable, so
	// swap them in and delete the old files.
	old := d.segs
	d.segs, d.index = newSegs, newIndex
	d.live, d.total = newLive, newTotal
	d.activeID = nextID
	for id, s := range old {
		s.f.Close()
		os.Remove(filepath.Join(d.dir, segName(id)))
	}
	d.compactions.Add(1)
	return nil
}

// Stats implements PlanStore.
func (d *Disk) Stats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return Stats{
		Entries:        len(d.index),
		Hits:           d.hits.Load(),
		Misses:         d.misses.Load(),
		Puts:           d.puts.Load(),
		PutSkips:       d.putSkips.Load(),
		PutErrors:      d.putErrors.Load(),
		CorruptDropped: d.corruptDropped.Load(),
		BytesLive:      d.live,
		BytesTotal:     d.total,
		Segments:       len(d.segs),
		Compactions:    d.compactions.Load(),
	}
}

// WaitWarm implements PlanStore; Open already rebuilt the index.
func (d *Disk) WaitWarm(context.Context) error { return nil }

func (d *Disk) syncLoop() {
	defer close(d.syncDone)
	t := time.NewTicker(d.cfg.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stopSync:
			return
		case <-t.C:
			d.mu.Lock()
			if d.dirty && !d.closed {
				d.dirty = false
				if seg, ok := d.segs[d.activeID]; ok {
					seg.f.Sync()
				}
			}
			d.mu.Unlock()
		}
	}
}

// Close implements PlanStore: final sync, stop the sync loop, close files.
func (d *Disk) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	var firstErr error
	for _, seg := range d.segs {
		if err := seg.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	d.mu.Unlock()
	close(d.stopSync)
	<-d.syncDone
	d.mu.Lock()
	d.closeFiles()
	d.mu.Unlock()
	return firstErr
}

func (d *Disk) closeFiles() {
	for _, seg := range d.segs {
		seg.f.Close()
	}
}
