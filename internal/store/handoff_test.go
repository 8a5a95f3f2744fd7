package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestHandoffPersistReplay(t *testing.T) {
	dir := t.TempDir()
	hq, err := openHandoffQueue(dir, "http://peer-a:1", 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := hq.enqueue(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	if hq.depth() != 3 {
		t.Fatalf("depth %d", hq.depth())
	}
	if err := hq.close(); err != nil {
		t.Fatal(err)
	}

	// A restart replays the undelivered backlog in order.
	hq2, err := openHandoffQueue(dir, "http://peer-a:1", 16)
	if err != nil {
		t.Fatal(err)
	}
	if hq2.depth() != 3 {
		t.Fatalf("replayed depth %d", hq2.depth())
	}
	for i := 0; i < 3; i++ {
		k, v, ok := hq2.peek()
		if !ok || k != tkey(i) || !bytes.Equal(v, tval(i)) {
			t.Fatalf("hint %d mismatch", i)
		}
		hq2.pop()
	}
	if _, _, ok := hq2.peek(); ok {
		t.Fatal("queue should be empty")
	}
	hq2.close()

	// Full drain reset the file: a third open starts empty.
	hq3, err := openHandoffQueue(dir, "http://peer-a:1", 16)
	if err != nil {
		t.Fatal(err)
	}
	if hq3.depth() != 0 {
		t.Fatalf("post-drain depth %d", hq3.depth())
	}
	hq3.close()
}

func TestHandoffCapDedupeAndTornTail(t *testing.T) {
	dir := t.TempDir()
	hq, err := openHandoffQueue(dir, "http://peer-b:2", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := hq.enqueue(tkey(0), tval(0)); err != nil {
		t.Fatal(err)
	}
	// A duplicate key collapses silently.
	if err := hq.enqueue(tkey(0), tval(0)); err != nil || hq.depth() != 1 {
		t.Fatalf("dedupe: %v depth=%d", err, hq.depth())
	}
	if err := hq.enqueue(tkey(1), tval(1)); err != nil {
		t.Fatal(err)
	}
	if err := hq.enqueue(tkey(2), tval(2)); !errors.Is(err, errHandoffFull) {
		t.Fatalf("over cap: %v", err)
	}
	hq.close()

	// Torn tail on the hint file: replay keeps the good prefix only.
	var path string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		path = filepath.Join(dir, e.Name())
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3, 4, 5})
	f.Close()
	hq2, err := openHandoffQueue(dir, "http://peer-b:2", 2)
	if err != nil {
		t.Fatal(err)
	}
	if hq2.depth() != 2 {
		t.Fatalf("torn-tail replay depth %d", hq2.depth())
	}
	hq2.close()
}

// TestHandoffCorruptHintKeepsLaterHints: a flipped byte in one complete
// hint drops that hint alone; the intact hints after it still replay.
func TestHandoffCorruptHintKeepsLaterHints(t *testing.T) {
	dir := t.TempDir()
	hq, err := openHandoffQueue(dir, "http://peer-c:3", 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := hq.enqueue(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := hq.path
	hq.close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second := int64(len(segMagic)) + recordBytes(0)
	raw[second+recordBytes(1)-1] ^= 0x01 // last payload byte of hint 2
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	hq2, err := openHandoffQueue(dir, "http://peer-c:3", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer hq2.close()
	if hq2.depth() != 2 {
		t.Fatalf("replayed depth %d, want 2", hq2.depth())
	}
	for _, i := range []int{0, 2} {
		k, v, ok := hq2.peek()
		if !ok || k != tkey(i) || !bytes.Equal(v, tval(i)) {
			t.Fatalf("hint %d mismatch", i)
		}
		hq2.pop()
	}
}
