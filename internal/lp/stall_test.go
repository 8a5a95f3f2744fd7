package lp

import "testing"

// TestStallGuard pins the pricing escalation: a strictly decreasing
// objective never leaves Dantzig, and a flat one switches to random
// pricing after rows/2+40 pivots without improvement and to Bland after
// 4·rows+1000, counted from the first pivot's objective; one strict
// improvement resets to Dantzig.
func TestStallGuard(t *testing.T) {
	for _, rows := range []int{1, 80, 1120} {
		g := newStallGuard(rows)
		for i := 0; i < 4*rows+2000; i++ {
			if mode := g.next(1e6 - float64(i)); mode != priceDantzig {
				t.Fatalf("rows=%d: decreasing objective left Dantzig at pivot %d (mode %d)", rows, i, mode)
			}
		}

		g = newStallGuard(rows)
		if mode := g.next(5); mode != priceDantzig {
			t.Fatalf("rows=%d: first pivot priced %d", rows, mode)
		}
		for stall := 1; stall <= 4*rows+1001; stall++ {
			want := priceDantzig
			switch {
			case stall > 4*rows+1000:
				want = priceBland
			case stall > rows/2+40:
				want = priceRandom
			}
			if mode := g.next(5); mode != want {
				t.Fatalf("rows=%d: flat pivot %d priced %d, want %d", rows, stall, mode, want)
			}
		}
		if mode := g.next(4); mode != priceDantzig {
			t.Fatalf("rows=%d: strict improvement priced %d, want Dantzig", rows, mode)
		}
		if mode := g.next(4); mode != priceDantzig {
			t.Fatalf("rows=%d: one flat pivot after a reset priced %d", rows, mode)
		}
	}
}
