package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// intersect is IntersectInto with a fresh destination.
func intersect(a, b AdjList) AdjList { return IntersectInto(nil, a, b) }

// refIntersect is the trivially correct reference: map-count membership.
func refIntersect(a, b AdjList) AdjList {
	in := make(map[VertexID]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	var out AdjList
	for _, v := range b {
		if in[v] {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refThreshold is the reference k-of-n implementation: a vertex qualifies
// when it appears in at least k distinct lists (duplicates within one list
// count once — lists are sets).
func refThreshold(lists []AdjList, k int) AdjList {
	if k <= 0 || len(lists) < k {
		return nil
	}
	counts := make(map[VertexID]int)
	for _, l := range lists {
		seen := make(map[VertexID]bool, len(l))
		for _, v := range l {
			if seen[v] {
				continue
			}
			seen[v] = true
			counts[v]++
		}
	}
	var out AdjList
	for v, c := range counts {
		if c >= k {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalLists(a, b AdjList) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randList(r *rand.Rand, n, space int) AdjList {
	ids := make([]VertexID, n)
	for i := range ids {
		ids[i] = VertexID(r.Intn(space))
	}
	return NewAdjList(ids)
}

func TestIntersectKernelsFixedCases(t *testing.T) {
	cases := []struct {
		a, b, want AdjList
	}{
		{nil, nil, nil},
		{AdjList{1}, nil, nil},
		{nil, AdjList{1}, nil},
		{AdjList{1, 2, 3}, AdjList{2, 3, 4}, AdjList{2, 3}},
		{AdjList{1, 3, 5}, AdjList{2, 4, 6}, nil},
		{AdjList{1, 2, 3}, AdjList{1, 2, 3}, AdjList{1, 2, 3}},
		{AdjList{5}, AdjList{1, 2, 3, 4, 5, 6}, AdjList{5}},
		{AdjList{0, 1<<64 - 1}, AdjList{1<<64 - 1}, AdjList{1<<64 - 1}},
	}
	for i, c := range cases {
		for name, fn := range map[string]func(a, b AdjList) AdjList{
			"merge":  IntersectMerge,
			"gallop": IntersectGallop,
			"auto":   intersect,
		} {
			got := fn(c.a, c.b)
			if !equalLists(got, c.want) {
				t.Errorf("case %d %s(%v, %v) = %v, want %v", i, name, c.a, c.b, got, c.want)
			}
		}
	}
}

// Property: all three exact kernels agree with the reference on random
// inputs across a range of size skews.
func TestIntersectKernelsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		na, nb := r.Intn(200), r.Intn(200)
		if trial%3 == 0 {
			nb = r.Intn(2000) // skewed case exercises galloping
		}
		a := randList(r, na, 500)
		b := randList(r, nb, 500)
		want := refIntersect(a, b)
		if got := IntersectMerge(a, b); !equalLists(got, want) {
			t.Fatalf("trial %d: merge = %v, want %v", trial, got, want)
		}
		if got := IntersectGallop(a, b); !equalLists(got, want) {
			t.Fatalf("trial %d: gallop = %v, want %v", trial, got, want)
		}
		if got := IntersectInto(nil, a, b); !equalLists(got, want) {
			t.Fatalf("trial %d: auto = %v, want %v", trial, got, want)
		}
	}
}

func TestIntersectAll(t *testing.T) {
	lists := []AdjList{
		{1, 2, 3, 4, 5},
		{2, 3, 4, 5, 6},
		{3, 4, 5, 6, 7},
	}
	want := AdjList{3, 4, 5}
	if got := IntersectAll(lists); !equalLists(got, want) {
		t.Fatalf("IntersectAll = %v, want %v", got, want)
	}
	if got := IntersectAll(nil); got != nil {
		t.Fatalf("IntersectAll(nil) = %v", got)
	}
	single := []AdjList{{1, 2}}
	got := IntersectAll(single)
	if !equalLists(got, AdjList{1, 2}) {
		t.Fatalf("IntersectAll(single) = %v", got)
	}
	// Must be a copy, not an alias.
	got[0] = 99
	if single[0][0] != 1 {
		t.Error("IntersectAll(single) aliases its input")
	}
	// Empty member kills the whole intersection.
	if got := IntersectAll([]AdjList{{1, 2}, nil, {1, 2}}); len(got) != 0 {
		t.Fatalf("IntersectAll with empty member = %v, want empty", got)
	}
}

func TestThresholdIntersectFixedCases(t *testing.T) {
	lists := []AdjList{
		{1, 2, 3},
		{2, 3, 4},
		{3, 4, 5},
	}
	tests := []struct {
		k    int
		want AdjList
	}{
		{1, AdjList{1, 2, 3, 4, 5}}, // union
		{2, AdjList{2, 3, 4}},
		{3, AdjList{3}}, // full intersection
		{4, nil},        // k > n
		{0, nil},
		{-1, nil},
	}
	for _, tt := range tests {
		if got := ThresholdIntersect(lists, tt.k); !equalLists(got, tt.want) {
			t.Errorf("ThresholdIntersect(k=%d) = %v, want %v", tt.k, got, tt.want)
		}
		if got := ThresholdIntersectCount(lists, tt.k); !equalLists(got, tt.want) {
			t.Errorf("ThresholdIntersectCount(k=%d) = %v, want %v", tt.k, got, tt.want)
		}
	}
}

func TestThresholdIntersectEmptyLists(t *testing.T) {
	// Empty input lists are skipped; threshold applies to remaining.
	lists := []AdjList{nil, {1, 2}, nil, {2, 3}}
	if got := ThresholdIntersect(lists, 2); !equalLists(got, AdjList{2}) {
		t.Fatalf("got %v, want [2]", got)
	}
	// All empty with k <= n returns nothing.
	if got := ThresholdIntersect([]AdjList{nil, nil, nil}, 2); got != nil {
		t.Fatalf("all-empty got %v", got)
	}
}

// Property: the threshold kernel agrees with the counting reference for
// random inputs and all k.
func TestThresholdIntersectAgreesWithReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(8)
		lists := make([]AdjList, n)
		for i := range lists {
			lists[i] = randList(r, r.Intn(60), 40)
		}
		for k := 1; k <= n; k++ {
			want := refThreshold(lists, k)
			got := ThresholdIntersect(lists, k)
			if !equalLists(got, want) {
				t.Fatalf("trial %d k=%d/%d: got %v, want %v (lists=%v)",
					trial, k, n, got, want, lists)
			}
		}
	}
}

// Property (quick): intersection is commutative and a subset of both
// inputs.
func TestIntersectQuickProperties(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := make([]VertexID, len(xs))
		for i, v := range xs {
			a[i] = VertexID(v)
		}
		b := make([]VertexID, len(ys))
		for i, v := range ys {
			b[i] = VertexID(v)
		}
		la, lb := NewAdjList(a), NewAdjList(b)
		ab := IntersectInto(nil, la, lb)
		ba := IntersectInto(nil, lb, la)
		if !equalLists(ab, ba) {
			return false
		}
		for _, v := range ab {
			if !la.Contains(v) || !lb.Contains(v) {
				return false
			}
		}
		return ab.IsSorted() || len(ab) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: threshold results are monotone in k — raising k can only
// shrink the result set.
func TestThresholdMonotoneInK(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(6)
		lists := make([]AdjList, n)
		for i := range lists {
			lists[i] = randList(r, 30, 50)
		}
		prev := ThresholdIntersect(lists, 1)
		for k := 2; k <= n; k++ {
			cur := ThresholdIntersect(lists, k)
			curSet := make(map[VertexID]bool, len(cur))
			for _, v := range cur {
				curSet[v] = true
			}
			for _, v := range cur {
				if !contains(prev, v) {
					t.Fatalf("trial %d: k=%d result %d not in k=%d result", trial, k, v, k-1)
				}
			}
			_ = curSet
			prev = cur
		}
	}
}

func contains(l AdjList, v VertexID) bool { return l.Contains(v) }

// Regression: duplicate entries within one list must not count toward k.
// The old heap merge counted occurrences, so [[5,5],[7]] with k=2 reported
// 5 even though it appears in only one list.
func TestThresholdIntersectDuplicatesWithinList(t *testing.T) {
	cases := []struct {
		lists []AdjList
		k     int
		want  AdjList
	}{
		{[]AdjList{{5, 5}, {7}}, 2, nil},
		{[]AdjList{{5, 5}, {5, 7}}, 2, AdjList{5}},
		{[]AdjList{{5, 5, 5}}, 1, AdjList{5}},
		{[]AdjList{{1, 1, 2}, {1, 2, 2}}, 2, AdjList{1, 2}},
		{[]AdjList{{1, 1, 2}, {1, 2, 2}}, 1, AdjList{1, 2}},
		{[]AdjList{{3, 3}, {3, 3}, {4}}, 2, AdjList{3}},
		{[]AdjList{{3, 3}, {3, 3}, {4}}, 3, nil},
		// k == n path (delegates to the exact-intersection kernels).
		{[]AdjList{{5, 5, 7}, {5, 7, 7}}, 2, AdjList{5, 7}},
		{[]AdjList{{5, 5}}, 1, AdjList{5}},
	}
	for i, c := range cases {
		if got := ThresholdIntersect(c.lists, c.k); !equalLists(got, c.want) {
			t.Errorf("case %d: ThresholdIntersect(%v, k=%d) = %v, want %v", i, c.lists, c.k, got, c.want)
		}
		if got := ThresholdIntersectCount(c.lists, c.k); !equalLists(got, c.want) {
			t.Errorf("case %d: ThresholdIntersectCount(%v, k=%d) = %v, want %v", i, c.lists, c.k, got, c.want)
		}
		s := GetScratch()
		if got := ThresholdIntersectInto(nil, c.lists, c.k, s); !equalLists(got, c.want) {
			t.Errorf("case %d: ThresholdIntersectInto(%v, k=%d) = %v, want %v", i, c.lists, c.k, got, c.want)
		}
		PutScratch(s)
	}
}

// The exact kernels are set operations: duplicate-bearing inputs yield
// duplicate-free output.
func TestIntersectKernelsTolerateDuplicates(t *testing.T) {
	a := AdjList{2, 5, 5, 7, 7, 7}
	b := AdjList{2, 2, 5, 7, 9}
	want := AdjList{2, 5, 7}
	for name, fn := range map[string]func(a, b AdjList) AdjList{
		"merge":  IntersectMerge,
		"gallop": IntersectGallop,
		"auto":   intersect,
	} {
		if got := fn(a, b); !equalLists(got, want) {
			t.Errorf("%s(%v, %v) = %v, want %v", name, a, b, got, want)
		}
	}
	if got := IntersectAll([]AdjList{a, b}); !equalLists(got, want) {
		t.Errorf("IntersectAll = %v, want %v", got, want)
	}
	if got := IntersectAll([]AdjList{{5, 5, 7}}); !equalLists(got, AdjList{5, 7}) {
		t.Errorf("IntersectAll(single dup list) = %v, want [5 7]", got)
	}
}

// The Into variants append after existing dst content and leave the prefix
// untouched, even when the prefix ends with a value the kernel is about to
// emit.
func TestIntersectIntoPreservesPrefix(t *testing.T) {
	a := AdjList{2, 3, 4}
	b := AdjList{2, 3, 9}
	prefix := AdjList{7, 2} // ends with 2 on purpose: base guard, not value guard
	for name, fn := range map[string]func(dst AdjList, a, b AdjList) AdjList{
		"merge":  IntersectMergeInto,
		"gallop": IntersectGallopInto,
		"auto":   IntersectInto,
	} {
		dst := append(AdjList(nil), prefix...)
		got := fn(dst, a, b)
		want := AdjList{7, 2, 2, 3}
		if !equalLists(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	s := GetScratch()
	defer PutScratch(s)
	dst := append(AdjList(nil), prefix...)
	got := ThresholdIntersectInto(dst, []AdjList{a, b, {2, 8}}, 2, s)
	want := AdjList{7, 2, 2, 3}
	if !equalLists(got, want) {
		t.Errorf("ThresholdIntersectInto = %v, want %v", got, want)
	}
}

// Property: the Into variants agree with their allocating counterparts.
func TestThresholdIntersectIntoAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	s := GetScratch()
	defer PutScratch(s)
	var dst AdjList
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(8)
		lists := make([]AdjList, n)
		for i := range lists {
			lists[i] = randList(r, r.Intn(60), 40)
		}
		for k := 1; k <= n; k++ {
			want := ThresholdIntersect(lists, k)
			dst = ThresholdIntersectInto(dst[:0], lists, k, s)
			if !equalLists(dst, want) {
				t.Fatalf("trial %d k=%d: Into = %v, want %v", trial, k, dst, want)
			}
		}
	}
}

// The whole point of the Into variants: zero heap allocations per call once
// the scratch and destination buffers are warm, whichever strategy the
// chooser picks. This is the kernel-level half of the per-event alloc
// budget; engine/cluster tests gate the rest.
func TestThresholdIntersectIntoZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	lists := make([]AdjList, 6)
	for i := range lists {
		lists[i] = randList(r, 200, 300)
	}
	long := make([]AdjList, 3) // past scanCountMaxElems: the merge at k >= 2
	for i := range long {
		long[i] = randList(r, scanCountMaxElems, 4*scanCountMaxElems)
	}
	s := new(Scratch)
	dst := make(AdjList, 0, 512)
	var cnt []int
	for _, tc := range []struct {
		name  string
		lists []AdjList
		k     int
	}{
		{"scancount", lists, 3},
		{"merge (union)", lists, 1},
		{"merge (long lists)", long, 2},
		{"k==n", lists, len(lists)},
	} {
		dst = ThresholdIntersectInto(dst[:0], tc.lists, tc.k, s) // warm buffers
		if allocs := testing.AllocsPerRun(20, func() {
			dst = ThresholdIntersectInto(dst[:0], tc.lists, tc.k, s)
		}); allocs != 0 {
			t.Errorf("%s: ThresholdIntersectInto %v allocs/op, want 0", tc.name, allocs)
		}
		dst, cnt = ThresholdCountsInto(dst[:0], cnt[:0], tc.lists, tc.k, s)
		if allocs := testing.AllocsPerRun(20, func() {
			dst, cnt = ThresholdCountsInto(dst[:0], cnt[:0], tc.lists, tc.k, s)
		}); allocs != 0 {
			t.Errorf("%s: ThresholdCountsInto %v allocs/op, want 0", tc.name, allocs)
		}
		if len(cnt) != len(dst) {
			t.Errorf("%s: %d counts for %d survivors", tc.name, len(cnt), len(dst))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		dst = IntersectInto(dst[:0], lists[0], lists[1])
	}); allocs != 0 {
		t.Fatalf("IntersectInto: %v allocs/op, want 0", allocs)
	}
}

// The chooser is a function of the lists' shape. These are the rows of
// BenchmarkThresholdIntersect, whose timings the chooser's constant cites,
// and of benchreport's E8(b), which prints the kernel each row runs: a change
// to the chooser that moves one fails here.
func TestThresholdChooserPicks(t *testing.T) {
	type row struct {
		name  string
		k     int
		lists []AdjList
		want  string
	}
	var rows []row
	for _, shape := range thresholdShapes {
		rows = append(rows, row{shape.name, shape.k, shape.lists(), map[string]string{
			"deployed": "scancount", "balanced-long": "scancount", "skewed-long": "merge", "union": "merge",
		}[shape.name]})
	}
	for n, want := range map[int]string{4: "scancount", 8: "scancount", 16: "scancount", 32: "merge"} {
		lists := make([]AdjList, n)
		for i := range lists {
			lists[i] = benchList(int64(i), 2_000, 100_000)
		}
		rows = append(rows, row{fmt.Sprintf("E8 %d long lists", n), 3, lists, want})
	}
	for _, r := range rows {
		s := new(Scratch)
		ThresholdIntersectInto(nil, r.lists, r.k, s)
		got := "merge"
		if s.epoch > 0 {
			got = "scancount" // only ScanCount stamps an epoch
		}
		if got != r.want {
			t.Errorf("%s (%d lists, %d elements, k=%d): chooser ran %s, want %s",
				r.name, len(r.lists), totalLen(r.lists), r.k, got, r.want)
		}
	}
}

func TestIntersectDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randList(r, 1000, 10_000)
	b := randList(r, 1000, 10_000)
	first := IntersectInto(nil, a, b)
	for i := 0; i < 5; i++ {
		if got := IntersectInto(nil, a, b); !reflect.DeepEqual(got, first) {
			t.Fatal("IntersectInto is not deterministic")
		}
	}
}
