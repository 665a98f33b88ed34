package partition

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"motifstream/internal/arena"
	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// candidateLog retains the last depth candidates per user, serving the
// broker read path. It owns what it retains: a candidate is copied in, field
// by field and Via element by Via element, in a form that spells a
// completion once however many programs reported it, and a reader gets a
// freshly materialised list — the log neither keeps nor hands out a slice it
// was given, and nothing in its arrays is a pointer.
//
// The log is flat arrays, as D is: index maps a user to a record in recs, and
// the record locates the user's runs, programs and Via elements as a block in
// each of three arenas — internal/arena is the mechanism, logPolicy and room
// the log's numbers — so a new user costs no allocation once they have room.
// dirty lists the records changed since the last delta checkpoint cut, each
// once: the record's flag says whether it is listed.
//
// The log is a ring per user and nothing else: an add at depth evicts the
// user's oldest candidate, and nothing removes a user. Its size is therefore
// bounded by at most depth (recentPerUser, 16) candidates for each A this
// partition owns in S — by S's user set, not by how long the stream has run.
type candidateLog struct {
	depth int
	mu    sync.RWMutex
	index map[graph.VertexID]uint32 // a user's record in recs
	recs  []logUser
	dirty []uint32 // the records whose dirty flag is set
	runs  arena.Arena[logRun]
	progs arena.Arena[uint32] // one per candidate: its program in names
	vias  arena.Arena[graph.VertexID]
	names nameTable
	order arena.Order // the compactions' scratch
}

// logUser is one user's record: its key, its three blocks, and whether it
// changed since the last cut.
type logUser struct {
	key               graph.VertexID
	runs, progs, vias arena.Block
	dirty             bool
}

// userLog is one user's retained candidates, oldest first: the runs of
// consecutive candidates that differ only in Program (the members of a share
// group recommending one completion), every candidate's program, and the
// runs' Via elements back to back. The log's is a view of a record's blocks
// (arena.Window: an append within a block is in place); a captured one owns
// copies.
type userLog struct {
	runs  []logRun
	progs []uint32
	vias  []graph.VertexID
}

// logRun is everything the n candidates of a run share but their user (the
// record's key): the trigger edge, the item, the detection time, the score's
// bits and how many elements of the user's vias are the run's Via. n is as
// wide as a run needs to be, not as a list may get: a run that is full stops
// merging and an equal one starts after it. via and a progs entry are 32 bits
// because 2³² Via elements or distinct program names are more than a
// checkpoint that fits in memory can hold, whatever its bytes say.
type logRun struct {
	src, dst graph.VertexID
	ts       int64
	item     graph.VertexID
	at       int64
	score    uint64
	via      uint32
	n        uint16
	typ      graph.EdgeType
}

// sameBut reports whether the two runs are equal in every field but n.
func (r *logRun) sameBut(o *logRun) bool {
	return r.src == o.src && r.dst == o.dst && r.ts == o.ts && r.item == o.item &&
		r.at == o.at && r.score == o.score && r.via == o.via && r.typ == o.typ
}

// runOf is c's run of one.
func runOf(c *motif.Candidate) logRun {
	return logRun{
		src: c.Trigger.Src, dst: c.Trigger.Dst, ts: c.Trigger.TS, typ: c.Trigger.Type,
		item: c.Item, at: c.DetectedAtMS, score: math.Float64bits(c.Score),
		via: uint32(len(c.Via)), n: 1,
	}
}

// newCandidateLog returns an empty log of the given depth: recentPerUser in
// a partition, shallower too in the log's own tests.
func newCandidateLog(depth int) *candidateLog {
	l := &candidateLog{depth: depth}
	l.install(nil)
	return l
}

// view returns u's lists as a userLog over the arenas.
func (l *candidateLog) view(u *logUser) userLog {
	return userLog{runs: l.runs.Window(u.runs), progs: l.progs.Window(u.progs), vias: l.vias.Window(u.vias)}
}

// setLens records v's lengths, a view of u after an add or an eviction, in
// u's blocks.
func (u *logUser) setLens(v userLog) {
	u.runs.N, u.progs.N, u.vias.N = uint32(len(v.runs)), uint32(len(v.progs)), uint32(len(v.vias))
}

// install replaces the log's contents with the given lists, as they are: one
// longer than the depth stays so until its user's next add trims it. Every
// block is exactly its list. An empty list installs nothing. No cut writes
// one — a dirty user always has a list — but a segment already on disk may
// hold one, a deleted user's tombstone from a log that could be swept, which
// is why this skip, Merge's noCandidates and the delta decoder go on reading
// it. A candidate is filed under its list's key, which is its User in every
// list a log has written.
func (l *candidateLog) install(lists codecutil.Run[graph.VertexID, []motif.Candidate]) {
	nProgs, nVias := 0, 0
	for _, e := range lists {
		nProgs += len(e.Val)
		for _, c := range e.Val {
			nVias += len(c.Via)
		}
	}
	index := make(map[graph.VertexID]uint32, len(lists))
	recs := make([]logUser, 0, len(lists))
	// At most one run a candidate: Fit gives back what the lists did not fill.
	runs, progs, vias := arena.Make[logRun](nProgs), arena.Make[uint32](nProgs), arena.Make[graph.VertexID](nVias)
	var names nameTable
	var v userLog // one user's lists, built here and appended
	for _, e := range lists {
		if len(e.Val) == 0 {
			continue
		}
		v = userLog{v.runs[:0], v.progs[:0], v.vias[:0]}
		for i := range e.Val {
			c := &e.Val[i]
			r := runOf(c)
			v.add(&r, c.Via, names.intern(c.Program), v.extends(&r, c.Via))
		}
		index[e.Key] = uint32(len(recs))
		recs = append(recs, logUser{key: e.Key, runs: runs.Append(v.runs), progs: progs.Append(v.progs), vias: vias.Append(v.vias)})
	}
	runs.Fit(logPolicy)
	l.mu.Lock()
	l.index, l.recs, l.dirty = index, recs, nil
	l.runs, l.progs, l.vias, l.names = runs, progs, vias, names
	l.mu.Unlock()
}

// addAll appends a batch under one lock acquisition — the batched apply
// path commits a whole batch's candidates at once. A user at depth loses
// their oldest candidate first: the blocks slide down over what leaves, in
// place, so a full user's blocks stay where and what they were.
func (l *candidateLog) addAll(cands []motif.Candidate) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range cands {
		c := &cands[i]
		k, ok := l.index[c.User]
		if !ok {
			k = uint32(len(l.recs))
			l.index[c.User] = k
			l.recs = append(l.recs, logUser{key: c.User})
		}
		u := &l.recs[k]
		v := l.view(u)
		if drop := len(v.progs) + 1 - l.depth; drop > 0 {
			v.dropOldest(drop)
			u.setLens(v)
		}
		r := runOf(c)
		extends := v.extends(&r, c.Via)
		if l.room(u, extends, len(c.Via)) {
			v = l.view(u)
		}
		v.add(&r, c.Via, l.names.intern(c.Program), extends)
		u.setLens(v)
		if !u.dirty {
			u.dirty = true
			l.dirty = append(l.dirty, k)
		}
	}
}

// Block sizes: a block that must grow moves at half again its size, from
// these at least and at most what a list at depth can need, and always at
// what it needs if that is more.
const startRuns, startProgs, startVias = 2, 16, 4

// logPolicy is the log's arena policy (docs/BENCHMARKS.md, "Log point" and
// "Recycle point"): a move without room always compacts, keeping an array
// with room for a sixteenth of the lists; a new array has an eighth of room.
// A log growing toward its working set allocates at geometric steps, one at
// it never.
var logPolicy = arena.Policy{Room: 16, NewRoom: 8}

// room makes u's blocks big enough to take a candidate with via Via
// elements: one more program, and unless the candidate extends the last run,
// one more run and its Via elements. It reports whether a block moved. No
// list holds more programs or runs than the depth (an over-long restored list
// shrinks before it grows); a Via block is bounded by the Via elements a run
// so far, times the depth.
func (l *candidateLog) room(u *logUser, extends bool, via int) (moved bool) {
	if u.progs.N == u.progs.Size {
		l.progs.Move(&u.progs, grow(u.progs, 1, startProgs, l.depth), logPolicy, arena.Blocks{N: len(l.recs), At: func(i int) *arena.Block { return &l.recs[i].progs }}, &l.order)
		moved = true
	}
	if extends {
		return moved
	}
	if u.runs.N == u.runs.Size {
		l.runs.Move(&u.runs, grow(u.runs, 1, startRuns, l.depth), logPolicy, arena.Blocks{N: len(l.recs), At: func(i int) *arena.Block { return &l.recs[i].runs }}, &l.order)
		moved = true
	}
	if int(u.vias.N)+via > int(u.vias.Size) {
		perRun := (int(u.vias.N) + via + int(u.runs.N)) / (int(u.runs.N) + 1) // rounded up
		l.vias.Move(&u.vias, grow(u.vias, via, startVias, perRun*l.depth), logPolicy, arena.Blocks{N: len(l.recs), At: func(i int) *arena.Block { return &l.recs[i].vias }}, &l.order)
		moved = true
	}
	return moved
}

// grow is the size b moves at to take more elements, start and limit as above.
func grow(b arena.Block, more, start, limit int) int {
	return max(int(b.N)+more, min(max(int(b.Size)*3/2, start), limit))
}

// add appends a candidate of run r (runOf), Via via and program prog as the
// user's newest: one more of the last run if it extends it (extends, asked
// before: the room check needs the answer too), and a run of its own
// otherwise.
func (u *userLog) add(r *logRun, via []graph.VertexID, prog uint32, extends bool) {
	u.progs = append(u.progs, prog)
	if extends {
		u.runs[len(u.runs)-1].n++
		return
	}
	u.runs = append(u.runs, *r)
	u.vias = append(u.vias, via...)
}

// extends reports whether a candidate of run r and Via via joins the user's
// last run: it equals that run bit for bit in everything but Program — two
// candidates equal in Program too are a run of two, not a duplicate.
func (u *userLog) extends(r *logRun, via []graph.VertexID) bool {
	n := len(u.runs)
	if n == 0 {
		return false
	}
	last := &u.runs[n-1]
	return last.n < math.MaxUint16 && last.sameBut(r) && slices.Equal(u.vias[len(u.vias)-len(via):], via)
}

// dropOldest evicts the user's drop oldest candidates (at most all of them):
// the first run shrinks, and a run that empties leaves with its Via elements.
func (u *userLog) dropOldest(drop int) {
	u.progs = slide(u.progs, drop)
	gone, vias := 0, 0
	for drop > 0 {
		r := &u.runs[gone]
		if int(r.n) > drop {
			r.n -= uint16(drop)
			break
		}
		drop -= int(r.n)
		vias += int(r.via)
		gone++
	}
	u.runs = slide(u.runs, gone)
	u.vias = slide(u.vias, vias)
}

// slide removes the first drop elements of s in place.
func slide[T any](s []T, drop int) []T {
	if drop == 0 {
		return s
	}
	return s[:copy(s, s[drop:])]
}

// each calls fn with every candidate of user a in order, materialised: the
// program's name from names, the Via a capacity-limited window of via, which
// holds u.vias' elements (u.vias itself, or a copy for candidates that
// outlive the call), shared by the candidates of a run.
func (u *userLog) each(a graph.VertexID, names []string, via []graph.VertexID, fn func(motif.Candidate)) {
	i := 0
	for _, r := range u.runs {
		c := motif.Candidate{
			User:         a,
			Item:         r.item,
			Trigger:      graph.Edge{Src: r.src, Dst: r.dst, Type: r.typ, TS: r.ts},
			DetectedAtMS: r.at,
			Score:        math.Float64frombits(r.score),
		}
		if r.via > 0 {
			c.Via, via = via[:r.via:r.via], via[r.via:]
		}
		for end := i + int(r.n); i < end; i++ {
			c.Program = names[u.progs[i]]
			fn(c)
		}
	}
}

// get materialises user a's list: the list and, if any candidate has one,
// one array for the Vias.
func (l *candidateLog) get(a graph.VertexID) []motif.Candidate {
	l.mu.RLock()
	defer l.mu.RUnlock()
	i, ok := l.index[a]
	if !ok {
		return nil
	}
	u := l.view(&l.recs[i])
	out := make([]motif.Candidate, 0, len(u.progs))
	u.each(a, l.names.names, slices.Clone(u.vias), func(c motif.Candidate) { out = append(out, c) })
	return out
}

// appendTo appends the candidate-log section from the runs, users ascending,
// byte for byte what codecutil.AppendRun makes of the materialised lists.
func (l *candidateLog) appendTo(b []byte) []byte {
	l.mu.RLock()
	defer l.mu.RUnlock()
	order := make([]uint32, len(l.recs))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(i, j uint32) int { return cmp.Compare(l.recs[i].key, l.recs[j].key) })
	b = binary.AppendUvarint(b, uint64(len(order)))
	for _, i := range order {
		a, u := l.recs[i].key, l.view(&l.recs[i])
		b = binary.AppendUvarint(b, uint64(a))
		b = binary.AppendUvarint(b, uint64(len(u.progs)))
		u.each(a, l.names.names, u.vias, func(c motif.Candidate) { b = motif.AppendCandidate(b, c) })
	}
	return b
}

// packedUsers is what a cut takes of the log: the dirty users' arrays, copied
// as they are, and the name table their progs index. Copying a few dozen
// bytes a user is all the apply loop pays; expand, on whoever first consumes
// the segment, makes the lists.
type packedUsers struct {
	names []string
	users []packedUser
}

// packedUser is one captured user.
type packedUser struct {
	key graph.VertexID
	userLog
}

// capture copies out the dirty users and clears their flags and the dirty
// log.
func (l *candidateLog) capture() packedUsers {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.dirty) == 0 {
		return packedUsers{}
	}
	// The table only ever grows by appending, so the prefix taken here stays
	// as it is whatever is interned after the cut.
	p := packedUsers{
		names: l.names.names[:len(l.names.names):len(l.names.names)],
		users: make([]packedUser, 0, len(l.dirty)),
	}
	var nRuns, nProgs, nVias int
	for _, i := range l.dirty {
		u := &l.recs[i]
		u.dirty = false
		p.users = append(p.users, packedUser{key: u.key, userLog: l.view(u)})
		nRuns, nProgs, nVias = nRuns+int(u.runs.N), nProgs+int(u.progs.N), nVias+int(u.vias.N)
	}
	runs := codecutil.Arena[logRun]{Chunk: nRuns}
	progs := codecutil.Arena[uint32]{Chunk: nProgs}
	vias := codecutil.Arena[graph.VertexID]{Chunk: nVias}
	for i := range p.users {
		u := &p.users[i]
		u.runs, u.progs, u.vias = runs.Copy(u.runs), progs.Copy(u.progs), vias.Copy(u.vias)
	}
	l.dirty = l.dirty[:0]
	return p
}

// expand materialises the captured users as a segment's run, in capture
// order: one array for every list, the Vias windows of the captured copies.
func (p packedUsers) expand() codecutil.Run[graph.VertexID, []motif.Candidate] {
	total := 0
	for i := range p.users {
		total += len(p.users[i].progs)
	}
	lists := codecutil.Arena[motif.Candidate]{Chunk: total}
	out := make(codecutil.Run[graph.VertexID, []motif.Candidate], len(p.users))
	for i := range p.users {
		u := &p.users[i]
		list := lists.Take(len(u.progs))[:0]
		u.each(u.key, p.names, u.vias, func(c motif.Candidate) { list = append(list, c) })
		out[i] = codecutil.Entry[graph.VertexID, []motif.Candidate]{Key: u.key, Val: list}
	}
	return out
}

// nameTable interns program names: a log sees a few dozen of them, a few
// hundred thousand times. It only grows, by appending.
type nameTable struct {
	names []string
	index map[string]uint32
	last  uint32 // the previous answer: a group member's candidates arrive together
}

func (t *nameTable) intern(name string) uint32 {
	if int(t.last) < len(t.names) && t.names[t.last] == name {
		return t.last
	}
	i, ok := t.index[name]
	if !ok {
		if t.index == nil {
			t.index = make(map[string]uint32)
		}
		i = uint32(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = i
	}
	t.last = i
	return i
}
