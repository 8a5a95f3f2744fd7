package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/framelog"
	"repro/internal/rng"
)

// tkey and tval generate deterministic, distinct test records; values vary
// in length so record boundaries land at irregular offsets.
func tkey(i int) Key {
	return Key{Hi: rng.Mix64(uint64(i) + 1), Lo: rng.Mix64(uint64(i)*2654435761 + 99)}
}

func tval(i int) []byte {
	n := 5 + (i*13)%57
	b := make([]byte, n)
	x := rng.Mix64(uint64(i) ^ 0xabcdef)
	for j := range b {
		x = rng.Mix64(x)
		b[j] = byte(x)
	}
	return b
}

func mustPut(t *testing.T, d *Disk, i int) {
	t.Helper()
	if err := d.Put(context.Background(), tkey(i), tval(i)); err != nil {
		t.Fatalf("put %d: %v", i, err)
	}
}

func mustGet(t *testing.T, d *Disk, i int) {
	t.Helper()
	v, tier, err := d.Get(context.Background(), tkey(i))
	if err != nil {
		t.Fatalf("get %d: %v", i, err)
	}
	if tier != TierDisk {
		t.Fatalf("get %d: tier %q", i, tier)
	}
	if !bytes.Equal(v, tval(i)) {
		t.Fatalf("get %d: payload mismatch", i)
	}
}

func TestDiskRoundtripReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskConfig{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		mustPut(t, d, i)
	}
	// Idempotent re-put: content-addressed, so a duplicate is a skip, not
	// a second record.
	if err := d.Put(context.Background(), tkey(0), tval(0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustGet(t, d, i)
	}
	st := d.Stats()
	if st.Entries != n || st.Puts != n || st.PutSkips != 1 {
		t.Fatalf("stats %+v, want entries=%d puts=%d skips=1", st, n, n)
	}
	if _, _, err := d.Get(context.Background(), Key{Hi: 1, Lo: 2}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent key: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i := 0; i < n; i++ {
		mustGet(t, d2, i)
	}
	st = d2.Stats()
	if st.Entries != n || st.CorruptDropped != 0 {
		t.Fatalf("reopen stats %+v", st)
	}
}

// TestDiskTornWriteEveryOffset is the crash-recovery property test: a
// write torn at EVERY possible byte offset must reopen to exactly the
// committed prefix — every fully-written record byte-identical, the torn
// record (if any bytes of it landed) dropped and counted exactly once,
// and nothing else.
func TestDiskTornWriteEveryOffset(t *testing.T) {
	const n = 10
	// Frame geometry: record i occupies [cum[i], cum[i+1]) in cumulative
	// record-append bytes (the segment adds an 8-byte magic before them,
	// which the fault hook never sees).
	cum := make([]int64, n+1)
	for i := 0; i < n; i++ {
		cum[i+1] = cum[i] + recordBytes(i)
	}
	total := cum[n]
	root := t.TempDir()

	for c := int64(0); c <= total; c++ {
		dir := filepath.Join(root, fmt.Sprintf("cut-%04d", c))
		var written int64
		crashed := false
		cfg := DiskConfig{
			Fsync: FsyncNever,
			WriteFault: func(rec []byte) (int, error) {
				if crashed {
					return 0, errors.New("crashed")
				}
				if written+int64(len(rec)) <= c {
					written += int64(len(rec))
					return len(rec), nil
				}
				keep := c - written
				written = c
				crashed = true
				return int(keep), errors.New("torn write (simulated crash)")
			},
		}
		d, err := Open(dir, cfg)
		if err != nil {
			t.Fatalf("cut %d: open: %v", c, err)
		}
		sawErr := false
		for i := 0; i < n; i++ {
			if err := d.Put(context.Background(), tkey(i), tval(i)); err != nil {
				sawErr = true
			}
		}
		d.Close()
		if (c < total) != sawErr {
			t.Fatalf("cut %d: crash error seen=%v", c, sawErr)
		}

		d2, err := Open(dir, DiskConfig{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", c, err)
		}
		wantDropped := uint64(0)
		for i := 0; i < n; i++ {
			k := tkey(i)
			switch {
			case cum[i+1] <= c: // fully committed before the cut
				v, _, err := d2.Get(context.Background(), k)
				if err != nil {
					t.Fatalf("cut %d: committed record %d lost: %v", c, i, err)
				}
				if !bytes.Equal(v, tval(i)) {
					t.Fatalf("cut %d: committed record %d corrupted", c, i)
				}
			default:
				if _, _, err := d2.Get(context.Background(), k); !errors.Is(err, ErrNotFound) {
					t.Fatalf("cut %d: uncommitted record %d: %v", c, i, err)
				}
				// The record straddling the cut left torn bytes on disk
				// exactly when the cut is strictly inside its frame.
				if cum[i] < c && c < cum[i+1] {
					wantDropped = 1
				}
			}
		}
		if got := d2.Stats().CorruptDropped; got != wantDropped {
			t.Fatalf("cut %d: corrupt_dropped=%d, want %d", c, got, wantDropped)
		}
		d2.Close()
		os.RemoveAll(dir) // keep the temp root small across ~700 iterations
	}
}

// TestDiskBitFlipQuarantine pins the read-path contract: a flipped bit is
// detected by the checksum, the record is quarantined (a miss, counted),
// and no Get ever returns wrong bytes. The media is untouched by read
// faults, so a clean reopen sees every record again.
func TestDiskBitFlipQuarantine(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskConfig{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		mustPut(t, d, i)
	}
	d.Close()

	flipping := true
	d2, err := Open(dir, DiskConfig{
		ReadFault: func(b []byte) {
			if flipping && len(b) > 0 {
				b[len(b)/2] ^= 0x10
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, _, err := d2.Get(context.Background(), tkey(i))
		if err == nil {
			// The flip must never slip through as a successful read of
			// wrong bytes.
			if !bytes.Equal(v, tval(i)) {
				t.Fatalf("get %d returned corrupt payload", i)
			}
			t.Fatalf("get %d succeeded through a bit flip", i)
		}
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	st := d2.Stats()
	if st.CorruptDropped != n {
		t.Fatalf("corrupt_dropped=%d, want %d", st.CorruptDropped, n)
	}
	if st.Entries != 0 {
		t.Fatalf("entries=%d after quarantine, want 0", st.Entries)
	}
	// Quarantined means unindexed: the next read of the same key is a
	// plain miss, not another quarantine.
	if _, _, err := d2.Get(context.Background(), tkey(0)); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.CorruptDropped != n {
		t.Fatalf("re-read re-quarantined: %d", st.CorruptDropped)
	}
	flipping = false
	d2.Close()

	d3, err := Open(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	for i := 0; i < n; i++ {
		mustGet(t, d3, i)
	}
}

// TestDiskCorruptRecordOnDisk flips a byte inside one complete on-disk
// frame: the rebuild must skip exactly that record (counted) and index
// everything around it.
func TestDiskCorruptRecordOnDisk(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskConfig{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var off int64 = 8 // segment magic
	victim := 3
	var victimOff int64
	for i := 0; i < n; i++ {
		if i == victim {
			victimOff = off
		}
		mustPut(t, d, i)
		off += recordBytes(i)
	}
	d.Close()

	seg := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[victimOff+framelog.HeaderSize+keyHeadLen+2] ^= 0x40 // payload byte of the victim
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	st := d2.Stats()
	if st.CorruptDropped != 1 || st.Entries != n-1 {
		t.Fatalf("stats %+v, want 1 dropped, %d entries", st, n-1)
	}
	for i := 0; i < n; i++ {
		if i == victim {
			if _, _, err := d2.Get(context.Background(), tkey(i)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("victim: %v", err)
			}
			continue
		}
		mustGet(t, d2, i)
	}
}

// TestDiskGarbageTail pins the torn-tail rule end-to-end: junk appended
// after the last record is truncated on reopen, counted once, and costs
// no committed data.
func TestDiskGarbageTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskConfig{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		mustPut(t, d, i)
	}
	d.Close()

	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := Open(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if st := d2.Stats(); st.CorruptDropped != 1 || st.Entries != n {
		t.Fatalf("stats %+v", st)
	}
	for i := 0; i < n; i++ {
		mustGet(t, d2, i)
	}
}

func TestDiskCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several of them.
	d, err := Open(dir, DiskConfig{Fsync: FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		mustPut(t, d, i)
	}
	before := d.Stats()
	if before.Segments < 2 {
		t.Fatalf("want multiple segments, got %d", before.Segments)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	after := d.Stats()
	if after.Compactions != 1 {
		t.Fatalf("compactions=%d", after.Compactions)
	}
	if after.Entries != n {
		t.Fatalf("entries=%d after compact", after.Entries)
	}
	for i := 0; i < n; i++ {
		mustGet(t, d, i)
	}
	d.Close()

	d2, err := Open(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if st := d2.Stats(); st.Entries != n || st.CorruptDropped != 0 {
		t.Fatalf("reopen after compact: %+v", st)
	}
	for i := 0; i < n; i++ {
		mustGet(t, d2, i)
	}
}

func TestDiskENOSPC(t *testing.T) {
	dir := t.TempDir()
	var budget int64 = 200
	d, err := Open(dir, DiskConfig{
		Fsync: FsyncAlways,
		WriteFault: func(rec []byte) (int, error) {
			if budget < int64(len(rec)) {
				return 0, errors.New("no space left on device (simulated)")
			}
			budget -= int64(len(rec))
			return len(rec), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ok, failed int
	for i := 0; i < 20; i++ {
		if err := d.Put(context.Background(), tkey(i), tval(i)); err != nil {
			failed++
		} else {
			ok++
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("ok=%d failed=%d, want both", ok, failed)
	}
	st := d.Stats()
	if st.PutErrors != uint64(failed) || st.Entries != ok {
		t.Fatalf("stats %+v, want %d errors %d entries", st, failed, ok)
	}
	// The store stays readable while full.
	for i := 0; i < 20; i++ {
		if _, _, err := d.Get(context.Background(), tkey(i)); err == nil {
			ok--
		}
	}
	if ok != 0 {
		t.Fatalf("readable entries do not match successful puts")
	}
	d.Close()
}

// TestDiskShortWriteKeepsLaterPuts: a write that lands only part of a
// frame (pwrite's short count on ENOSPC) must not strand the puts after
// it. The next append overwrites the partial bytes, so every put that
// returned nil reopens intact and nothing is counted corrupt — also when
// that next frame is shorter than the partial one.
func TestDiskShortWriteKeepsLaterPuts(t *testing.T) {
	dir := t.TempDir()
	// Put 1 (a 42-byte frame) lands 30 bytes and put 2's frame is longer;
	// put 4 (81 bytes) lands 70 and put 5's frame is 37 bytes.
	short := map[int]int{1: 30, 4: 70}
	calls := 0
	d, err := Open(dir, DiskConfig{
		Fsync: FsyncAlways,
		WriteFault: func(rec []byte) (int, error) {
			calls++
			if keep, ok := short[calls-1]; ok {
				return keep, errors.New("no space left on device (simulated)")
			}
			return len(rec), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		err := d.Put(context.Background(), tkey(i), tval(i))
		if _, fails := short[i]; fails != (err != nil) {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	d.Close()

	d2, err := Open(dir, DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i := 0; i < n; i++ {
		if _, fails := short[i]; fails {
			if _, _, err := d2.Get(context.Background(), tkey(i)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("failed put %d is readable: %v", i, err)
			}
			continue
		}
		mustGet(t, d2, i)
	}
	if st := d2.Stats(); st.Entries != n-len(short) || st.CorruptDropped != 0 {
		t.Fatalf("reopen stats %+v, want %d entries, 0 dropped", st, n-len(short))
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"", FsyncInterval, true},
		{"sometimes", "", false},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseFsyncPolicy(%q) = %q, %v", tc.in, got, err)
		}
	}
}

func TestKeyStringParse(t *testing.T) {
	k := Key{Hi: 0xdeadbeefcafe1234, Lo: 0x0123456789abcdef}
	s := k.String()
	if len(s) != 32 {
		t.Fatalf("len %d", len(s))
	}
	got, err := ParseKey(s)
	if err != nil || got != k {
		t.Fatalf("roundtrip %v %v", got, err)
	}
	if _, err := ParseKey("nope"); err == nil {
		t.Fatal("want error")
	}
}

// recordBytes is the framed size of test record i.
func recordBytes(i int) int64 { return int64(framelog.Size(keyHeadLen, len(tval(i)))) }
