package codecutil

import (
	"slices"
	"strings"
	"testing"
)

type intRun = Run[int, string]

func TestRunSealSortsCaptureOrder(t *testing.T) {
	r := intRun{{5, "e"}, {1, "a"}, {3, "c"}}
	r.Seal()
	if want := (intRun{{1, "a"}, {3, "c"}, {5, "e"}}); !slices.Equal(r, want) {
		t.Fatalf("sealed run %v, want %v", r, want)
	}
	r.Seal()
	if r[0].Key != 1 || r[2].Val != "e" {
		t.Fatalf("sealing a sealed run moved it: %v", r)
	}
}

func TestRunMergeNewestWins(t *testing.T) {
	oldest := intRun{{1, "a0"}, {2, "b0"}, {4, "d0"}, {6, ""}}
	middle := intRun{{2, ""}, {3, "c1"}, {4, "d1"}}
	newest := intRun{{4, "d2"}, {5, ""}, {7, "g2"}}
	kept := intRun{{1, "a0"}, {2, ""}, {3, "c1"}, {4, "d2"}, {5, ""}, {6, ""}, {7, "g2"}}
	if got := MergeRuns(nil, oldest, middle, newest); !slices.Equal(got, kept) {
		t.Fatalf("merge keeping tombstones = %v, want %v", got, kept)
	}
	dropped := intRun{{1, "a0"}, {3, "c1"}, {4, "d2"}, {7, "g2"}}
	dead := func(v string) bool { return v == "" }
	if got := MergeRuns(dead, oldest, middle, newest); !slices.Equal(got, dropped) {
		t.Fatalf("merge dropping tombstones = %v, want %v", got, dropped)
	}
	if got := MergeRuns[int, string](dead); len(got) != 0 {
		t.Fatalf("merge of nothing = %v", got)
	}
	if len(oldest) != 4 || oldest[0].Val != "a0" || len(middle) != 3 || len(newest) != 3 {
		t.Fatal("merge modified its inputs")
	}
}

func TestRunAppendAscendingRejectsOutOfOrder(t *testing.T) {
	for name, keys := range map[string][]int{"repeated": {3, 3}, "descending": {3, 2}} {
		c := NewCursor(nil, "test")
		var r intRun
		for _, k := range keys {
			r = AppendAscending(c, "key", r, k, "")
		}
		if c.Err == nil || !strings.Contains(c.Err.Error(), "not ascending") {
			t.Fatalf("%s keys: cursor error %v", name, c.Err)
		}
	}
	c := NewCursor(nil, "test")
	r := AppendAscending(c, "key", AppendAscending(c, "key", intRun{}, 2, "b"), 3, "c")
	if c.Err != nil || len(r) != 2 {
		t.Fatalf("ascending keys: run %v, cursor error %v", r, c.Err)
	}
}
