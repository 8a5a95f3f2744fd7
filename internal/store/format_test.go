package store

import (
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestSegmentFormatGolden pins the on-disk bytes of a segment holding one
// record for a fixed key and value: the magic, then
// [len u32][crc32c u32][keyHi u64][keyLo u64][payload], all little-endian.
// Any change here makes existing segment and hint files unreadable.
func TestSegmentFormatGolden(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskConfig{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	if err := d.Put(context.Background(), k, []byte("plan payload")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	const want = "73757573746f7231" + // magic "suustor1"
		"0c000000" + "1888103a" + // len, crc32c
		"efcdab8967452301" + "1032547698badcfe" + // keyHi, keyLo
		"706c616e207061796c6f6164" // "plan payload"
	if got := hex.EncodeToString(raw); got != want {
		t.Fatalf("segment bytes changed:\n got %s\nwant %s", got, want)
	}
}
