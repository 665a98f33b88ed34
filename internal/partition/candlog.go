package partition

import (
	"math"
	"slices"
	"sync"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// candidateLog retains the last depth candidates per user, serving the
// broker read path. It owns what it retains: a candidate is copied in, field
// by field and Via element by Via element, in a form that spells a
// completion once however many programs reported it, and a reader gets a
// freshly materialised list — the log neither keeps nor hands out a slice it
// was given, and nothing in a user's arrays is a pointer. dirty tracks users
// whose lists changed since the last delta checkpoint cut.
//
// The log is a ring per user and nothing else: an add at depth evicts the
// user's oldest candidate, and nothing removes a user. Its size is therefore
// bounded by at most depth (RecentPerUser, 16) candidates for each A this
// partition owns in S — by S's user set, not by how long the stream has run.
type candidateLog struct {
	depth int
	mu    sync.RWMutex
	users map[graph.VertexID]*userLog
	dirty map[graph.VertexID]struct{}
	names nameTable
}

// userLog is one user's retained candidates, oldest first: the runs of
// consecutive candidates that differ only in Program (the members of a share
// group recommending one completion), every candidate's program, and the
// runs' Via elements back to back.
type userLog struct {
	runs  []logRun
	progs []uint32 // one per candidate: its program in the log's nameTable
	vias  []graph.VertexID
}

// logRun is everything the n candidates of a run share but their user (the
// map key): the trigger edge, the item, the detection time, the score's bits
// and how many elements of the user's vias are the run's Via. n is as wide as
// a run needs to be, not as a list may get: a run that is full stops merging
// and an equal one starts after it. via and a progs entry are 32 bits because
// 2³² Via elements or distinct program names are more than a checkpoint that
// fits in memory can hold, whatever its bytes say.
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
func (r logRun) sameBut(o logRun) bool {
	o.n = r.n
	return r == o
}

func newCandidateLog(depth int) *candidateLog {
	l := &candidateLog{depth: depth}
	l.install(nil)
	return l
}

// install replaces the log's contents with the given lists, as they are: one
// longer than the depth stays so until its user's next add trims it. An
// empty list installs nothing. No cut writes one — a dirty user always has a
// list — but a segment already on disk may hold one, a deleted user's
// tombstone from a log that could be swept, which is why this skip, Merge's
// noCandidates and the delta decoder go on reading it. A candidate is filed
// under its list's key, which is its User in every list a log has written.
func (l *candidateLog) install(lists codecutil.Run[graph.VertexID, []motif.Candidate]) {
	users := make(map[graph.VertexID]*userLog, len(lists))
	var names nameTable
	for _, e := range lists {
		if len(e.Val) == 0 {
			continue
		}
		u := &userLog{progs: make([]uint32, 0, len(e.Val))}
		for _, c := range e.Val {
			u.add(c, names.intern(c.Program))
		}
		users[e.Key] = u
	}
	l.mu.Lock()
	l.users, l.names = users, names
	l.dirty = make(map[graph.VertexID]struct{})
	l.mu.Unlock()
}

// addAll appends a batch under one lock acquisition — the batched apply
// path commits a whole batch's candidates at once. A user at depth loses
// their oldest candidate first: the arrays slide down over what leaves, in
// place, so a full user's footprint stays what it was.
func (l *candidateLog) addAll(cands []motif.Candidate) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range cands {
		u := l.users[c.User]
		if u == nil {
			// Most users that get a candidate go on to fill up: progs starts
			// at the size it would double its way to (64 bytes at most).
			u = &userLog{progs: make([]uint32, 0, min(l.depth, 16))}
			l.users[c.User] = u
		}
		if drop := len(u.progs) + 1 - l.depth; drop > 0 {
			u.dropOldest(drop)
		}
		u.add(c, l.names.intern(c.Program))
		l.dirty[c.User] = struct{}{}
	}
}

// add appends c as the user's newest candidate: one more of the last run if
// it equals that run bit for bit in everything but Program — two candidates
// equal in Program too are a run of two, not a duplicate — and a run of its
// own otherwise.
func (u *userLog) add(c motif.Candidate, prog uint32) {
	u.progs = append(u.progs, prog)
	r := logRun{
		src: c.Trigger.Src, dst: c.Trigger.Dst, ts: c.Trigger.TS, typ: c.Trigger.Type,
		item: c.Item, at: c.DetectedAtMS, score: math.Float64bits(c.Score),
		via: uint32(len(c.Via)), n: 1,
	}
	if n := len(u.runs); n > 0 {
		last := &u.runs[n-1]
		if last.n < math.MaxUint16 && last.sameBut(r) && slices.Equal(u.vias[len(u.vias)-len(c.Via):], c.Via) {
			last.n++
			return
		}
	}
	u.runs = append(u.runs, r)
	u.vias = append(u.vias, c.Via...)
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
	u := l.users[a]
	if u == nil {
		return nil
	}
	out := make([]motif.Candidate, 0, len(u.progs))
	u.each(a, l.names.names, slices.Clone(u.vias), func(c motif.Candidate) { out = append(out, c) })
	return out
}

// writeTo encodes the candidate-log section from the runs, users ascending,
// byte for byte what writeRun makes of the materialised lists.
func (l *candidateLog) writeTo(cp *codecutil.Writer) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	keys := make([]graph.VertexID, 0, len(l.users))
	for a := range l.users {
		keys = append(keys, a)
	}
	slices.Sort(keys)
	cp.PutU(uint64(len(keys)))
	for _, a := range keys {
		u := l.users[a]
		cp.PutU(uint64(a))
		cp.PutU(uint64(len(u.progs)))
		u.each(a, l.names.names, u.vias, func(c motif.Candidate) { putCandidate(cp, c) })
	}
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

// capture copies out the dirty users and resets the dirty set.
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
	for a := range l.dirty {
		u := l.users[a]
		p.users = append(p.users, packedUser{key: a, userLog: *u})
		nRuns, nProgs, nVias = nRuns+len(u.runs), nProgs+len(u.progs), nVias+len(u.vias)
	}
	runs := codecutil.Arena[logRun]{Chunk: nRuns}
	progs := codecutil.Arena[uint32]{Chunk: nProgs}
	vias := codecutil.Arena[graph.VertexID]{Chunk: nVias}
	for i := range p.users {
		u := &p.users[i]
		u.runs, u.progs, u.vias = runs.Copy(u.runs), progs.Copy(u.progs), vias.Copy(u.vias)
	}
	l.dirty = make(map[graph.VertexID]struct{})
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
