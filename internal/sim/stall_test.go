package sim

import (
	"slices"
	"testing"
)

// TestStalls pins the bookkeeping rule: Stalled drops selected only,
// Exposed drops selected and not_selected, and Top ranks the exposed,
// non-zero reasons largest first with ties in reason order.
func TestStalls(t *testing.T) {
	var v Stalls
	v[StallSelected] = 100
	v[StallNotSelected] = 50
	v[StallLongScoreboard] = 3
	v[StallShortScoreboard] = 3 // a tie a selection sort would reorder
	v[StallWait] = 7
	v[StallBarrier] = 3
	v[StallDrain] = 1

	if got := v.Stalled(); got != 67 {
		t.Errorf("Stalled = %v, want 67 (every reason but selected)", got)
	}
	if got := v.Exposed(); got != 17 {
		t.Errorf("Exposed = %v, want 17 (not selected, not not_selected)", got)
	}
	if got := (Stalls{}).Stalled(); got != 0 {
		t.Errorf("zero vector Stalled = %v", got)
	}

	for _, tc := range []struct {
		n    int
		want []Stall
	}{
		{0, []Stall{}},
		{1, []Stall{StallWait}},
		{3, []Stall{StallWait, StallLongScoreboard, StallShortScoreboard}},
		{int(NumStalls) + 5, []Stall{StallWait, StallLongScoreboard, StallShortScoreboard, StallBarrier, StallDrain}},
	} {
		if got := v.Top(tc.n); !slices.Equal(got, tc.want) {
			t.Errorf("Top(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}

	// Only bookkeeping reasons: nothing to rank.
	var book Stalls
	book[StallSelected], book[StallNotSelected] = 9, 9
	if top := book.Top(int(NumStalls)); len(top) != 0 {
		t.Errorf("Top over bookkeeping reasons only = %v, want none", top)
	}
	if book.Exposed() != 0 || book.Stalled() != 9 {
		t.Errorf("bookkeeping-only vector: Exposed %v, Stalled %v", book.Exposed(), book.Stalled())
	}
}
