package partition

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"motifstream/internal/codecutil"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// refLog is the candidate log as it was before it owned what it retains —
// mapState's map of candidate lists, a full list sliding down over its oldest
// entry — with the per-candidate item counter beside it: the reference the
// compact log, its encoders and itemCounter.addAll are held against. D and
// the sweep clock stay empty: the differential commits candidates without
// applying edges.
type refLog struct {
	*mapState
	depth             int
	dirty, dirtyItems map[graph.VertexID]struct{}
}

func newRefLog(depth int) *refLog {
	return &refLog{
		mapState:   newMapState(),
		depth:      depth,
		dirty:      make(map[graph.VertexID]struct{}),
		dirtyItems: make(map[graph.VertexID]struct{}),
	}
}

func (l *refLog) commit(cands []motif.Candidate) {
	for _, c := range cands {
		list := l.Users[c.User]
		if drop := len(list) + 1 - l.depth; drop > 0 {
			list = list[:copy(list, list[drop:])]
		}
		l.Users[c.User] = append(list, c)
		l.dirty[c.User] = struct{}{}
		l.Items[c.Item]++
		l.dirtyItems[c.Item] = struct{}{}
	}
}

// captureDelta returns what the reference dirtied since the last call.
func (l *refLog) captureDelta() *Segment {
	d := &Segment{}
	for a := range l.dirty {
		d.Users = append(d.Users, codecutil.Entry[graph.VertexID, []motif.Candidate]{Key: a, Val: l.Users[a]})
	}
	for it := range l.dirtyItems {
		d.Items = append(d.Items, codecutil.Entry[graph.VertexID, uint64]{Key: it, Val: l.Items[it]})
	}
	l.dirty, l.dirtyItems = map[graph.VertexID]struct{}{}, map[graph.VertexID]struct{}{}
	return d
}

// load installs a decoded base as Partition.LoadState does: as it is.
func (l *refLog) load(s *Segment) {
	for _, e := range s.Users {
		l.Users[e.Key] = e.Val
	}
	for _, e := range s.Items {
		l.Items[e.Key] = e.Val
	}
}

// sameCut takes a cut of both and requires the delta encodings equal.
func sameCut(t testing.TB, what string, p *Partition, ref *refLog) {
	t.Helper()
	var got, want bytes.Buffer
	if _, err := p.CaptureDelta().WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.captureDelta().WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: delta encodings differ (%d bytes, reference %d)", what, got.Len(), want.Len())
	}
}

// isDirty reads user a's dirty flag: whether the next cut carries a.
func (l *candidateLog) isDirty(a graph.VertexID) bool {
	i, ok := l.index[a]
	return ok && l.recs[i].dirty
}

// logPartition is a partition to commit candidates to: no edge is applied, so
// D stays empty and the log and item counters are all its state.
func logPartition(t testing.TB, depth int) *Partition {
	t.Helper()
	p, err := New(Config{
		Partitioner:   NewHashPartitioner(1),
		Dynamic:       dynstore.Options{Retention: time.Hour},
		Programs:      diamondProgs(),
		RecentPerUser: depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameCandidates is candidate-list equality to the bit: Score by its bits (a
// NaN equals itself, 0 does not equal −0), Via by its elements.
func sameCandidates(a, b []motif.Candidate) bool {
	return slices.EqualFunc(a, b, func(x, y motif.Candidate) bool {
		return x.User == y.User && x.Item == y.Item && x.Trigger == y.Trigger &&
			x.DetectedAtMS == y.DetectedAtMS && x.Program == y.Program &&
			math.Float64bits(x.Score) == math.Float64bits(y.Score) && slices.Equal(x.Via, y.Via)
	})
}

// logFuzzUsers is the fuzzed differential's user universe.
const logFuzzUsers = 4

// logFuzzScores are the scores a fuzzed completion draws from: the usual
// support count, both zeros, and two NaNs of different payloads.
var logFuzzScores = []float64{
	3, 0, math.Copysign(0, -1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002),
}

// logDiff drives a partition and the reference through one op sequence.
type logDiff struct {
	t       *testing.T
	p       *Partition
	ref     *refLog
	users   graph.VertexID // the user universe: 0 up to users
	trigger int            // the current completion; a flag bit moves on to the next
}

// check holds the two to each other: every user's list, the dirty sets the
// next cut will carry, and the base encoding (the live run encoder against
// the segment encoder over the reference's lists).
func (d *logDiff) check(op string) {
	d.t.Helper()
	for a := graph.VertexID(0); a < d.users; a++ {
		got, want := d.p.RecommendationsFor(a), d.ref.Users[a]
		if !sameCandidates(got, want) {
			d.t.Fatalf("after %s: user %d\n got %+v\nwant %+v", op, a, got, want)
		}
		for i, c := range got {
			if len(c.Via) != cap(c.Via) {
				d.t.Fatalf("after %s: user %d entry %d: Via has len %d, cap %d", op, a, i, len(c.Via), cap(c.Via))
			}
		}
		dirty := d.p.log.isDirty(a)
		if _, want := d.ref.dirty[a]; dirty != want {
			d.t.Fatalf("after %s: user %d dirty %v, reference %v", op, a, dirty, want)
		}
	}
	var live bytes.Buffer
	live.Write(d.p.AppendBase(nil))
	if want := baseBytes(d.t, d.ref.segment()); !bytes.Equal(live.Bytes(), want) {
		d.t.Fatalf("after %s: base encodings differ (%d bytes, reference %d)", op, live.Len(), len(want))
	}
}

// commit commits a run of 1 + run%6 candidates that share a completion to
// both sides, for user%users. flags: bit 0 moves to a new trigger first, bits
// 1–3 pick the score, bits 4–6 the Via length (0–5), bit 7 gives every
// candidate of the run the same program. vary: bits 0 and 1 move Item and
// DetectedAtMS off their usual values, bits 2–3 pick the trigger type, bit 4
// changes the last Via element.
func (d *logDiff) commit(user graph.VertexID, run, flags, vary byte) {
	if flags&1 != 0 {
		d.trigger++
	}
	e := graph.Edge{
		Src: graph.VertexID(100 + d.trigger), Dst: graph.VertexID(200 + d.trigger%3),
		Type: graph.EdgeType(vary >> 2 & 3 % motif.NumEdgeTypes), TS: int64(1000 + 10*d.trigger),
	}
	c := motif.Candidate{
		User: user % d.users, Item: e.Dst + graph.VertexID(vary&1),
		Trigger: e, DetectedAtMS: e.TS + int64(vary>>1&1),
		Score: logFuzzScores[int(flags>>1&7)%len(logFuzzScores)],
	}
	for i := 0; i < int(flags>>4&7)%6; i++ {
		c.Via = append(c.Via, graph.VertexID(300+d.trigger+i))
	}
	if n := len(c.Via); n > 0 && vary&16 != 0 {
		c.Via[n-1]++
	}
	cands := make([]motif.Candidate, 1+int(run)%6)
	for i := range cands {
		cands[i] = c
		cands[i].Program = fmt.Sprintf("p%d", i)
		if flags&128 != 0 {
			cands[i].Program = "p0"
		}
	}
	d.p.Commit(cands)
	d.ref.commit(cands)
}

// restore moves both sides into fresh partitions of the given depth through
// WriteTo → DecodeBase → LoadState.
func (d *logDiff) restore(depth int) {
	var buf bytes.Buffer
	buf.Write(d.p.AppendBase(nil))
	s, err := DecodeBase(buf.Bytes(), nil)
	if err != nil {
		d.t.Fatal(err)
	}
	d.p, d.ref = logPartition(d.t, depth), newRefLog(depth)
	d.p.LoadState(s)
	d.ref.load(s)
}

// run interprets ops, five bytes an add and two a restore:
//
//	0..3 user run flags vary  commit (user%4, the rest as commit reads them)
//	5                         CaptureDelta → WriteTo, both sides, bytes equal
//	6 depth                   restore into partitions of depth 1, 2 or 16
//	4, 7                      nothing (check runs after every op)
func (d *logDiff) run(ops []byte) {
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	for len(ops) > 0 {
		switch op := next() % 8; op {
		default:
			d.commit(graph.VertexID(next()), next(), next(), next())
			d.check("commit")
		case 5:
			sameCut(d.t, "cut", d.p, d.ref)
			d.check("capture")
		case 6:
			depth := []int{1, 2, 16}[next()%3]
			d.restore(depth)
			d.check(fmt.Sprintf("restore at depth %d", depth))
		case 4, 7:
		}
	}
	// What the last cut left dirty, and an empty cut after it.
	sameCut(d.t, "final cut", d.p, d.ref)
	sameCut(d.t, "empty cut", d.p, d.ref)
}

// FuzzCandidateLog holds the compact log to the map-of-lists log it replaced
// over byte-driven op sequences (logDiff.run has the format) at depths 1, 2
// and 16: after every op the two agree on every user's RecommendationsFor,
// on the dirty set, and on the base encoding to the byte, and at every cut on
// the delta encoding.
func FuzzCandidateLog(f *testing.F) {
	const newTrigger, sameProgram = 1, 128
	score := func(i byte) byte { return i << 1 }
	via := func(n byte) byte { return n << 4 }
	// A run of five, then four single completions: at depth 2 and 16 the
	// evictions take the run's candidates one by one (a run split by eviction).
	f.Add([]byte{
		0, 1, 4, newTrigger | via(3), 0,
		0, 1, 0, newTrigger | via(2), 0, 0, 1, 0, newTrigger | via(2), 0,
		0, 1, 0, newTrigger | via(1), 0, 0, 1, 0, newTrigger | via(1), 0, 5,
	})
	// Runs of two with Vias of 5, 0 and 3 elements, then a run of six: whole
	// runs leave and the Via array slides, over an empty Via too.
	f.Add([]byte{
		0, 2, 1, newTrigger | via(5), 0, 0, 2, 1, newTrigger, 0, 0, 2, 1, newTrigger | via(3), 0,
		0, 2, 5, newTrigger | via(2), 0, 5, 0, 2, 5, newTrigger | via(4), 0, 5,
	})
	// Twenty candidates for one user at depth 16, restored into depth 2 (the
	// over-long list stays as restored), a cut, then the add that trims it.
	f.Add([]byte{
		0, 3, 5, newTrigger | via(1), 0, 0, 3, 5, newTrigger | via(2), 0, 0, 3, 5, newTrigger | via(3), 0,
		0, 3, 1, newTrigger | via(3), 0, 6, 1, 5, 0, 3, 0, newTrigger | via(1), 0, 5,
	})
	// One completion scored 0, then −0, then the two NaNs: adjacent runs equal
	// but for the score's bits must not merge; then the same again, which must.
	f.Add([]byte{
		0, 0, 1, newTrigger | score(1) | via(2), 0, 0, 0, 1, score(2) | via(2), 0,
		0, 0, 1, score(3) | via(2), 0, 0, 0, 1, score(4) | via(2), 0, 0, 0, 1, score(4) | via(2), 0, 5,
	})
	// One program twice in a run (a run of two, not a dedup), runs that differ
	// in one field each, a restore.
	f.Add([]byte{
		0, 1, 1, newTrigger | sameProgram | via(2), 0, 0, 1, 1, via(2), 1, 0, 1, 1, via(2), 2,
		0, 1, 1, via(2), 4, 0, 1, 1, via(2), 0, 0, 1, 1, via(2), 16, 0, 2, 2, newTrigger | via(1), 0, 5,
		6, 2, 0, 2, 0, newTrigger, 0, 5, 7,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, depth := range []int{1, 2, 16} {
			d := &logDiff{t: t, p: logPartition(t, depth), ref: newRefLog(depth), users: logFuzzUsers}
			d.run(ops)
		}
	})
}

// TestCandidateLogAtScale is FuzzCandidateLog's differential over 2 048
// users, enough that every arena compacts again and again — each compaction
// moving every block — between cuts, restores and the commits after them.
// Seeded batches of 400 runs to random users alternate with cuts, and the log
// is restored at depth 1, then 2, then 16; after each step the two sides agree
// on every user's RecommendationsFor, dirty flag and the base bytes, and at
// every cut on the delta bytes.
func TestCandidateLogAtScale(t *testing.T) {
	const users = 2048
	r := rand.New(rand.NewSource(31))
	d := &logDiff{t: t, p: logPartition(t, 16), ref: newRefLog(16), users: users}
	// arrays notes the arenas' backing arrays and lengths: a compaction
	// replaces an array or, in place, drops garbage a move alone never would.
	type array struct {
		data uintptr
		n    int
	}
	arrays := func() [3]array {
		l := d.p.log
		return [3]array{
			{uintptr(unsafe.Pointer(unsafe.SliceData(l.runs.Buf()))), len(l.runs.Buf())},
			{uintptr(unsafe.Pointer(unsafe.SliceData(l.progs.Buf()))), len(l.progs.Buf())},
			{uintptr(unsafe.Pointer(unsafe.SliceData(l.vias.Buf()))), len(l.vias.Buf())},
		}
	}
	var compactions [3]int
	for step := 0; step < 60; step++ {
		switch {
		case step%16 == 15:
			depth := []int{1, 2, 16}[step/16]
			d.restore(depth)
			d.check(fmt.Sprintf("restore at depth %d", depth))
		case step%4 == 3:
			sameCut(t, fmt.Sprintf("cut at step %d", step), d.p, d.ref)
			d.check("cut")
		default:
			for i := 0; i < 400; i++ {
				before := arrays()
				d.commit(graph.VertexID(r.Intn(users)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
				for j, a := range arrays() {
					if a.data != before[j].data || a.n < before[j].n {
						compactions[j]++
					}
				}
			}
			d.check(fmt.Sprintf("commits of step %d", step))
		}
	}
	sameCut(t, "final cut", d.p, d.ref)
	for j, n := range compactions {
		if n < 20 {
			t.Errorf("arena %d compacted %d times; the differential wants many", j, n)
		}
	}
	t.Logf("compactions (runs, programs, Vias): %v", compactions)
}

// TestItemCounterAddAll holds the coalescing item counter to the
// per-candidate one on a batch that mixes runs of one item with singles and a
// returning item: TopItems, the base bytes and the next cut's bytes are equal.
func TestItemCounterAddAll(t *testing.T) {
	p, ref := logPartition(t, 16), newRefLog(16)
	var batch []motif.Candidate
	for i, item := range []graph.VertexID{9, 9, 9, 4, 9, 9, 7, 7, 4, 9} {
		batch = append(batch, motif.Candidate{User: graph.VertexID(i % 3), Item: item, Program: "p"})
	}
	for i := 0; i < 3; i++ {
		p.Commit(batch[i:])
		ref.commit(batch[i:])
	}
	got := p.TopItems(10)
	want := []ItemCount{{Item: 9, Count: 15}, {Item: 4, Count: 6}, {Item: 7, Count: 6}}
	if !slices.Equal(got, want) {
		t.Fatalf("TopItems = %v, want %v", got, want)
	}
	var live bytes.Buffer
	live.Write(p.AppendBase(nil))
	if !bytes.Equal(live.Bytes(), baseBytes(t, ref.segment())) {
		t.Fatal("base bytes differ from the per-candidate counter's")
	}
	sameCut(t, "mixed batch", p, ref)
}

// TestCapturedSegmentEncodesBesideCommits runs a cut the way the cluster
// does: the apply loop captures, the checkpoint writer's goroutine expands and
// encodes, and meanwhile the apply loop goes on committing — here candidates
// of programs the log has not seen, so the name table the captured segment
// holds a prefix of grows (and moves) under it. The bytes are the reference's
// for the state at the cut; the race detector watches the sharing.
func TestCapturedSegmentEncodesBesideCommits(t *testing.T) {
	p, ref := logPartition(t, 16), newRefLog(16)
	commit := func(round int) {
		batch := multiqueryShape.event(round, 0)
		for i := range batch {
			batch[i].Program = fmt.Sprintf("r%d-%s", round, batch[i].Program)
		}
		p.Commit(batch)
		ref.commit(batch)
	}
	commit(0)
	for round := 1; round <= 20; round++ {
		d := p.CaptureDelta()
		var want bytes.Buffer
		if _, err := ref.captureDelta().WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		got := make(chan []byte)
		go func() {
			var buf bytes.Buffer
			if _, err := d.WriteTo(&buf); err != nil {
				t.Error(err)
			}
			got <- buf.Bytes()
		}()
		commit(round)
		if !bytes.Equal(<-got, want.Bytes()) {
			t.Fatalf("cut %d: bytes encoded beside commits differ from the reference's", round)
		}
	}
}

// logShape is a stream of completions as a benchmark workload logs them:
// every event recommends one item to users consecutive users, each by
// members programs (the candidates member-major, as a share group emits
// them), every user's Via drawn from viaLens in turn.
type logShape struct {
	members []int // programs reporting a completion, per event in turn
	viaLens []int
	users   int
}

var (
	// multiqueryShape: runs of 4–5 candidates, Via of 1–3 supports.
	multiqueryShape = logShape{members: []int{4, 5}, viaLens: []int{1, 2, 3}, users: 7}
	// steadyShape: one program, k = 3.
	steadyShape = logShape{members: []int{1}, viaLens: []int{3}, users: 7}
)

// event returns the i-th event's candidates for the users from first on.
func (s logShape) event(i int, first graph.VertexID) []motif.Candidate {
	e := graph.Edge{Src: graph.VertexID(1000 + i), Dst: graph.VertexID(5000 + i%64), Type: graph.Follow, TS: int64(1_000_000 + i)}
	support := make([]graph.VertexID, 8)
	for j := range support {
		support[j] = graph.VertexID(2000 + i + j)
	}
	var cands []motif.Candidate
	for m := 0; m < s.members[i%len(s.members)]; m++ {
		for u := 0; u < s.users; u++ {
			via := support[:s.viaLens[(i+u)%len(s.viaLens)]]
			cands = append(cands, motif.Candidate{
				User: first + graph.VertexID(u), Item: e.Dst, Via: via[:len(via):len(via)], Trigger: e,
				DetectedAtMS: e.TS, Program: fmt.Sprintf("m%02d", m), Score: float64(len(via)),
			})
		}
	}
	return cands
}

// fill commits events until every one of n users (in blocks of s.users) has
// seen rounds events, and returns the partition.
func (s logShape) fill(t testing.TB, n, rounds int) *Partition {
	p := logPartition(t, 16)
	for first := 0; first < n; first += s.users {
		for i := 0; i < rounds; i++ {
			p.Commit(s.event(first+i, graph.VertexID(first)))
		}
	}
	return p
}

// logBytes is the log's exact size: its arenas' capacities, its record
// table's and its index's entries (a key and a record number each).
func logBytes(l *candidateLog) int {
	return cap(l.runs.Buf())*int(unsafe.Sizeof(logRun{})) +
		cap(l.progs.Buf())*int(unsafe.Sizeof(uint32(0))) +
		cap(l.vias.Buf())*int(unsafe.Sizeof(graph.VertexID(0))) +
		cap(l.recs)*int(unsafe.Sizeof(logUser{})) +
		len(l.index)*int(unsafe.Sizeof(graph.VertexID(0))+unsafe.Sizeof(uint32(0)))
}

// TestCandidateLogFootprint bounds what the log holds per retained candidate,
// in exact bytes (logBytes: what the allocator was asked for, so the number
// repeats exactly). A list of candidate structs costs 104 bytes a candidate
// before its Via (the benchmark's logs were at ≈ 125 and ≈ 150); a log of a
// heap object and three slices per user, 56 and 120 on these shapes.
func TestCandidateLogFootprint(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shape  logShape
		budget float64
	}{
		{"multiquery", multiqueryShape, 56},
		{"steady", steadyShape, 120},
	} {
		l := tc.shape.fill(t, 70, 40).log
		cands := 0
		for i := range l.recs {
			cands += int(l.recs[i].progs.N)
		}
		if cands != 70*16 {
			t.Fatalf("%s: %d candidates retained, want every user at depth", tc.name, cands)
		}
		if per := float64(logBytes(l)) / float64(cands); per > tc.budget {
			t.Errorf("%s shape: %.1f bytes per retained candidate, budget %.0f", tc.name, per, tc.budget)
		} else {
			t.Logf("%s shape: %.1f bytes per retained candidate", tc.name, per)
		}
	}
}

// TestCommitAllocBudget: committing an event to users at depth, its programs
// and its item known, allocates nothing — eviction slides, the name table
// answers from its index, the item counter increments.
func TestCommitAllocBudget(t *testing.T) {
	shape := logShape{members: []int{4}, viaLens: []int{1, 2, 3}, users: 7}
	p := shape.fill(t, 7, 40)
	batch := shape.event(40, 0)
	if len(batch) != 28 {
		t.Fatalf("event of %d candidates, want 28", len(batch))
	}
	p.Commit(batch) // the event's item enters the counter
	if got := testing.AllocsPerRun(100, func() { p.Commit(batch) }); got > 0 {
		t.Errorf("Commit of a 28-candidate, 7-user event allocates %.1f times, budget 0", got)
	}
}

// TestCommitNewUsersAllocBudget: committing to users the log has never seen
// allocates per compaction of an arena and per growth of the record table and
// the index, not per user: 4 096 new users, each taking events until full, at
// most 0.05 allocations a candidate. A log of a heap object per user pays for
// the object, its programs and every doubling of its arrays: 0.75 a
// steady-shaped candidate.
func TestCommitNewUsersAllocBudget(t *testing.T) {
	const users, rounds = 4096, 16
	for _, tc := range []struct {
		name  string
		shape logShape
	}{{"multiquery", multiqueryShape}, {"steady", steadyShape}} {
		p := logPartition(t, 16)
		events, cands := tc.shape.fresh(users, rounds)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, ev := range events {
			p.Commit(ev)
		}
		runtime.ReadMemStats(&after)
		if n := len(p.log.recs); n < users {
			t.Fatalf("%s: %d users logged, want %d", tc.name, n, users)
		}
		if per := float64(after.Mallocs-before.Mallocs) / float64(cands); per > 0.05 {
			t.Errorf("%s: committing to new users allocates %.3f times a candidate, budget 0.05", tc.name, per)
		} else {
			t.Logf("%s: %.4f allocations a candidate", tc.name, per)
		}
	}
}

// TestCommitWorkingSetZeroAlloc: a log at its working set — every user at
// depth, a user's run count and Via count coming and going as events of one,
// four and five programs alternate — allocates nothing a commit. Run and Via
// blocks that must grow keep moving (a full user's program block is at depth
// and stays), and their arenas keep compacting, in the arrays they are in: an
// arena is replaced only when its lists and their room outgrow it.
func TestCommitWorkingSetZeroAlloc(t *testing.T) {
	shape := logShape{members: []int{4, 1, 1, 5, 1}, viaLens: []int{1, 2, 3}, users: 7}
	const users, rounds = 70, 40
	p := shape.fill(t, users, rounds)
	var events [][]motif.Candidate
	for i := 0; i < 30; i++ {
		for first := 0; first < users; first += shape.users {
			events = append(events, shape.event(rounds+i, graph.VertexID(first)))
		}
	}
	l := p.log
	arenas := func() [3]int { return [3]int{len(l.runs.Buf()), len(l.progs.Buf()), len(l.vias.Buf())} }
	var compactions [3]int
	commitAll := func() {
		for _, ev := range events {
			before := arenas()
			p.Commit(ev)
			// A move only lengthens an arena; a compaction drops its garbage.
			for j, n := range arenas() {
				if n < before[j] {
					compactions[j]++
				}
			}
		}
	}
	for i := 0; i < 20; i++ {
		commitAll()
	}
	compactions = [3]int{}
	if got := testing.AllocsPerRun(5, commitAll); got > 0 {
		t.Errorf("%d commits at the working set allocate %.1f times, budget 0", len(events), got)
	}
	if compactions[0] == 0 || compactions[2] == 0 {
		t.Errorf("vacuous: compactions (runs, programs, Vias) %v; want runs and Vias compacting", compactions)
	}
	t.Logf("compactions in 6 passes (runs, programs, Vias): %v", compactions)
}

// fresh returns rounds events for each block of s.users users of the first n,
// in block order, and how many candidates they hold: commits to users a log
// has not seen before their block.
func (s logShape) fresh(n, rounds int) ([][]motif.Candidate, int) {
	var events [][]motif.Candidate
	cands := 0
	for first := 0; first < n; first += s.users {
		for i := 0; i < rounds; i++ {
			events = append(events, s.event(first+i, graph.VertexID(first)))
			cands += len(events[len(events)-1])
		}
	}
	return events, cands
}

// TestRecommendationsForAllocBudget: a read materialises the list and one
// array for its Vias, shared within a run.
func TestRecommendationsForAllocBudget(t *testing.T) {
	p := multiqueryShape.fill(t, 7, 40)
	recs := p.RecommendationsFor(3)
	if len(recs) != 16 || &recs[14].Via[0] != &recs[15].Via[0] {
		t.Fatalf("%d candidates, the last two of one run sharing a Via: %v", len(recs), &recs[14].Via[0] == &recs[15].Via[0])
	}
	if got := testing.AllocsPerRun(100, func() { p.RecommendationsFor(3) }); got > 2 {
		t.Errorf("RecommendationsFor allocates %.1f times, budget 2", got)
	}
}

// BenchmarkCommit is the log's write path on stream-shaped events: to users
// already at depth, and (fresh) to 4 096 users the log has not seen, each
// taking events until full — ns and bytes allocated per candidate committed.
func BenchmarkCommit(b *testing.B) {
	for _, bc := range []struct {
		name  string
		shape logShape
		fresh bool
	}{{"multiquery", multiqueryShape, false}, {"steady", steadyShape, false}, {"multiquery-fresh", multiqueryShape, true}, {"steady-fresh", steadyShape, true}} {
		b.Run(bc.name, func(b *testing.B) {
			var p *Partition
			var events [][]motif.Candidate
			cands := 0
			if bc.fresh {
				events, cands = bc.shape.fresh(4096, 16)
			} else {
				p = bc.shape.fill(b, 7, 40)
				events = make([][]motif.Candidate, 64)
				for i := range events {
					events[i] = bc.shape.event(40+i, 0)
					cands += len(events[i])
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.fresh {
					b.StopTimer()
					p = logPartition(b, 16)
					b.StartTimer()
				}
				for _, ev := range events {
					p.Commit(ev)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * cands)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/candidate")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/candidate")
		})
	}
}
