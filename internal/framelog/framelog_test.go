package framelog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

const testMaxBody = 1 << 10

// frames draws a random record sequence for a log with the given head
// length and returns it encoded, with each frame's start offset (plus a
// final entry at the end). Bodies are never empty under an empty head:
// that frame is implausible by definition.
func frames(r *rand.Rand, headLen, count int) (b []byte, heads, bodies [][]byte, offs []int) {
	for i := 0; i < count; i++ {
		head := make([]byte, headLen)
		r.Read(head)
		body := make([]byte, r.Intn(40))
		if headLen == 0 && len(body) == 0 {
			body = append(body, byte(i))
		}
		r.Read(body)
		offs = append(offs, len(b))
		heads, bodies = append(heads, head), append(bodies, body)
		b = Append(b, head, body)
	}
	return b, heads, bodies, append(offs, len(b))
}

type frame struct {
	off        int
	head, body []byte
}

func scanAll(b []byte, headLen int) (got []frame, end, skipped int, err error) {
	end, skipped, err = Scan(b, headLen, testMaxBody, func(off int, head, body []byte) {
		got = append(got, frame{off, head, body})
	})
	return got, end, skipped, err
}

// checkFrames asserts got is exactly the frames with indices want, in order.
func checkFrames(t *testing.T, what string, got []frame, want []int, heads, bodies [][]byte, offs []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", what, len(got), len(want))
	}
	for j, i := range want {
		g := got[j]
		if g.off != offs[i] || !bytes.Equal(g.head, heads[i]) || !bytes.Equal(g.body, bodies[i]) {
			t.Fatalf("%s: frame %d is not record %d", what, j, i)
		}
	}
}

// TestScanProperties is the torn-tail, corruption and lost-framing
// contract every log built on framelog relies on, for the store's 16-byte
// key head and the record logs' empty head.
func TestScanProperties(t *testing.T) {
	for _, headLen := range []int{0, 16} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("head%d/seed%d", headLen, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				b, heads, bodies, offs := frames(r, headLen, 1+r.Intn(8))
				count := len(heads)

				// A cut at every offset yields exactly the complete prefix.
				for c := 0; c <= len(b); c++ {
					got, end, skipped, err := scanAll(b[:c], headLen)
					complete := 0
					for complete < count && offs[complete+1] <= c {
						complete++
					}
					checkFrames(t, fmt.Sprintf("cut %d", c), got, seq(0, complete), heads, bodies, offs)
					if end != offs[complete] || skipped != 0 {
						t.Fatalf("cut %d: end=%d skipped=%d, want end=%d skipped=0", c, end, skipped, offs[complete])
					}
					if wantErr := end < c; (err != nil) != wantErr || (wantErr && !errors.Is(err, ErrTorn)) {
						t.Fatalf("cut %d: err=%v", c, err)
					}
				}

				// One flipped byte in a frame's head or body drops exactly
				// that frame.
				for i := 0; i < count; i++ {
					for p := offs[i] + HeaderSize; p < offs[i+1]; p++ {
						bad := bytes.Clone(b)
						bad[p] ^= byte(1 + r.Intn(255))
						got, end, skipped, err := scanAll(bad, headLen)
						what := fmt.Sprintf("flip frame %d byte %d", i, p-offs[i])
						checkFrames(t, what, got, append(seq(0, i), seq(i+1, count)...), heads, bodies, offs)
						if end != len(b) || skipped != 1 || err != nil {
							t.Fatalf("%s: end=%d skipped=%d err=%v", what, end, skipped, err)
						}
					}
				}

				// An implausible length stops the scan at that frame.
				for i := 0; i < count; i++ {
					for _, l := range []uint32{testMaxBody + 1, 0xffffffff, 0} {
						if l == 0 && headLen != 0 {
							continue // a key-only frame is legal
						}
						bad := bytes.Clone(b)
						bad[offs[i]], bad[offs[i]+1], bad[offs[i]+2], bad[offs[i]+3] = byte(l), byte(l>>8), byte(l>>16), byte(l>>24)
						got, end, skipped, err := scanAll(bad, headLen)
						what := fmt.Sprintf("length %d at frame %d", l, i)
						checkFrames(t, what, got, seq(0, i), heads, bodies, offs)
						if end != offs[i] || skipped != 0 || !errors.Is(err, ErrBadLen) {
							t.Fatalf("%s: end=%d skipped=%d err=%v", what, end, skipped, err)
						}
					}
				}
			})
		}
	}
}

func seq(lo, hi int) []int {
	var s []int
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// TestParseBounds: a body of exactly maxBody parses; one byte more is an
// implausible length even when the bytes are all there.
func TestParseBounds(t *testing.T) {
	body := make([]byte, testMaxBody)
	b := Append(nil, []byte("k"), body)
	if _, got, n, err := Parse(b, 1, testMaxBody); err != nil || len(got) != testMaxBody || n != len(b) {
		t.Fatalf("max body: n=%d err=%v", n, err)
	}
	if _, _, _, err := Parse(b, 1, testMaxBody-1); !errors.Is(err, ErrBadLen) {
		t.Fatalf("over max body: %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWriter: the writer's stream is exactly the Append encoding of its
// records, its ledger matches, and write errors are counted, not returned.
func TestWriter(t *testing.T) {
	var buf bytes.Buffer
	fw := NewWriter(&buf)
	var want []byte
	for i := 0; i < 20; i++ {
		body := bytes.Repeat([]byte{byte(i)}, 1+i)
		fw.Append(nil, body)
		want = Append(want, nil, body)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("writer stream differs from Append encoding")
	}
	if st := fw.Stats(); st != (Stats{Records: 20, Bytes: uint64(len(want))}) {
		t.Fatalf("stats %+v", st)
	}

	bad := NewWriter(failWriter{})
	bad.Append(nil, []byte{1}) // the first append flushes
	if st := bad.Stats(); st.Errors != 1 || st.Records != 0 {
		t.Fatalf("failing writer stats %+v", st)
	}
}

// FuzzScan: Scan never panics, never runs past its input, and every frame
// it yields re-encodes with Append to exactly the bytes it was read from.
func FuzzScan(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, headLen := range []int{0, 16} {
		b, _, _, _ := frames(r, headLen, 3)
		f.Add(b, headLen == 16)
		f.Add(b[:len(b)-1], headLen == 16)
	}
	f.Fuzz(func(t *testing.T, b []byte, keyed bool) {
		headLen := 0
		if keyed {
			headLen = 16
		}
		prev := -1
		end, skipped, err := Scan(b, headLen, testMaxBody, func(off int, head, body []byte) {
			if off <= prev {
				t.Fatalf("frame at %d after frame at %d", off, prev)
			}
			prev = off
			n := Size(headLen, len(body))
			if off+n > len(b) || !bytes.Equal(Append(nil, head, body), b[off:off+n]) {
				t.Fatalf("frame at %d does not re-encode to its bytes", off)
			}
		})
		if end < 0 || end > len(b) || skipped < 0 {
			t.Fatalf("end=%d skipped=%d for %d bytes", end, skipped, len(b))
		}
		if (err == nil) != (end == len(b)) {
			t.Fatalf("end=%d of %d with err=%v", end, len(b), err)
		}
	})
}
