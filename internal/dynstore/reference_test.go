package dynstore

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
	"motifstream/internal/workload"
)

// refStore is the map-of-lists D the flat shards replaced, kept as the
// differential reference: per target a slice of its own, a dirty set of the
// targets changed since the last cut, every prune and cap a memmove. It is
// one shard under no lock; the behaviour the store must match does not
// depend on sharding.
type refStore struct {
	retentionMS int64
	maxPer      int
	targets     map[graph.VertexID][]InEdge
	edges       int64
	dirty       map[graph.VertexID]struct{}
}

func newRef(opts Options) *refStore {
	r := &refStore{retentionMS: opts.Retention.Milliseconds(), maxPer: opts.MaxPerTarget}
	r.Reset()
	return r
}

func (r *refStore) Insert(e graph.Edge) int {
	list := r.targets[e.Dst]
	before := len(list)
	list = append(list, InEdge{B: e.Src, TS: e.TS})
	list = r.prune(list, e.TS)
	if r.maxPer > 0 && len(list) > r.maxPer {
		drop := len(list) - r.maxPer
		list = append(list[:0], list[drop:]...)
	}
	r.targets[e.Dst] = list
	r.edges += int64(len(list) - before)
	r.dirty[e.Dst] = struct{}{}
	return len(list)
}

func (r *refStore) prune(list []InEdge, nowMS int64) []InEdge {
	if r.retentionMS <= 0 || len(list) == 0 {
		return list
	}
	cutoff := nowMS - r.retentionMS
	i := 0
	for i < len(list) && list[i].TS < cutoff {
		i++
	}
	if i == 0 {
		return list
	}
	return append(list[:0], list[i:]...)
}

func (r *refStore) RecentLimitInto(dst []InEdge, c graph.VertexID, sinceMS int64, limit int) []InEdge {
	list := r.targets[c]
	base := len(dst)
	seen := map[graph.VertexID]struct{}{}
	for i := len(list) - 1; i >= 0; i-- {
		in := list[i]
		if in.TS < sinceMS {
			continue
		}
		if _, dup := seen[in.B]; dup {
			continue
		}
		seen[in.B] = struct{}{}
		dst = append(dst, in)
		if limit > 0 && len(dst)-base >= limit {
			break
		}
	}
	slices.Reverse(dst[base:])
	return dst
}

func (r *refStore) Sweep(nowMS int64) int {
	if r.retentionMS <= 0 {
		return 0
	}
	cutoff := nowMS - r.retentionMS
	removed := 0
	for c, list := range r.targets {
		keep := list[:0]
		for _, in := range list {
			if in.TS >= cutoff {
				keep = append(keep, in)
			}
		}
		removed += len(list) - len(keep)
		r.edges -= int64(len(list) - len(keep))
		if len(keep) < len(list) {
			r.dirty[c] = struct{}{}
		}
		if len(keep) == 0 {
			delete(r.targets, c)
		} else {
			r.targets[c] = keep
		}
	}
	return removed
}

func (r *refStore) Stats() Stats {
	return Stats{Targets: len(r.targets), Edges: r.edges}
}

// CaptureDelta returns the dirty targets' lists, sealed, and clears the set.
func (r *refStore) CaptureDelta() Targets {
	var out Targets
	for c := range r.dirty {
		out = append(out, entry(c, slices.Clone(r.targets[c])))
	}
	r.dirty = make(map[graph.VertexID]struct{})
	out.Seal()
	return out
}

func (r *refStore) WriteTo(w io.Writer) (int64, error) {
	var t Targets
	for c, list := range r.targets {
		t = append(t, entry(c, list))
	}
	t.Seal()
	return codecutil.WriteTo(w, AppendTargets(nil, t, false))
}

func (r *refStore) LoadSnapshot(targets Targets) {
	r.Reset()
	for _, e := range targets {
		if len(e.Val) > 0 {
			r.targets[e.Key] = slices.Clone(e.Val)
			r.edges += int64(len(e.Val))
		}
	}
}

func (r *refStore) Reset() {
	r.targets = make(map[graph.VertexID][]InEdge)
	r.edges = 0
	r.dirty = make(map[graph.VertexID]struct{})
}

func entry(c graph.VertexID, list []InEdge) codecutil.Entry[graph.VertexID, []InEdge] {
	return codecutil.Entry[graph.VertexID, []InEdge]{Key: c, Val: list}
}

// differ drives a Store and the reference through one operation sequence
// and fails at the first observable difference.
type differ struct {
	t     testing.TB
	s     *Store
	ref   *refStore
	saved Targets // the last snapshot taken, which load installs
	a, b  []InEdge
}

func newDiffer(t testing.TB, opts Options, shards int) *differ {
	return &differ{t: t, s: newStore(opts, shards), ref: newRef(opts)}
}

func (d *differ) insert(e graph.Edge) {
	if got, want := d.s.Insert(e), d.ref.Insert(e); got != want {
		d.t.Fatalf("Insert(%d→%d @%d) = %d, reference %d", e.Src, e.Dst, e.TS, got, want)
	}
}

func (d *differ) recent(c graph.VertexID, sinceMS int64, limit int) {
	d.a = d.s.RecentLimitInto(d.a[:0], c, sinceMS, limit)
	d.b = d.ref.RecentLimitInto(d.b[:0], c, sinceMS, limit)
	if !slices.Equal(d.a, d.b) {
		d.t.Fatalf("RecentLimitInto(%d, %d, %d) = %v, reference %v", c, sinceMS, limit, d.a, d.b)
	}
}

func (d *differ) sweep(nowMS int64) {
	if got, want := d.s.Sweep(nowMS), d.ref.Sweep(nowMS); got != want {
		d.t.Fatalf("Sweep(%d) removed %d, reference %d", nowMS, got, want)
	}
}

func (d *differ) stats() {
	if got, want := d.s.Stats(), d.ref.Stats(); got != want {
		d.t.Fatalf("Stats = %+v, reference %+v", got, want)
	}
}

// capture requires a cut to carry each key once and, sealed, to encode to
// the reference's bytes.
func (d *differ) capture() {
	got, want := d.s.CaptureDelta(), d.ref.CaptureDelta()
	seen := make(map[graph.VertexID]bool, len(got))
	for _, e := range got {
		if seen[e.Key] {
			d.t.Fatalf("CaptureDelta carries target %d twice", e.Key)
		}
		seen[e.Key] = true
	}
	got.Seal()
	g, w := AppendTargets(nil, got, true), AppendTargets(nil, want, true)
	if !bytes.Equal(g, w) {
		d.t.Fatalf("CaptureDelta encodes to %d bytes, reference %d: %v, want %v", len(g), len(w), got, want)
	}
}

// write requires equal snapshot bytes and keeps the snapshot for load.
func (d *differ) write() {
	var g, w bytes.Buffer
	g.Write(d.s.AppendSnapshot(nil))
	if _, err := d.ref.WriteTo(&w); err != nil {
		d.t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		d.t.Fatalf("WriteTo wrote %d bytes, reference %d", g.Len(), w.Len())
	}
	saved, err := decodeSnapshot(g.Bytes())
	if err != nil {
		d.t.Fatal(err)
	}
	d.saved = saved
}

func (d *differ) load() {
	d.s.LoadSnapshot(d.saved)
	d.ref.LoadSnapshot(d.saved)
}

func (d *differ) reset() {
	d.s.Reset()
	d.ref.Reset()
}

// chooser is where an operation sequence comes from: a seeded *rand.Rand, or
// the fuzzer's bytes.
type chooser interface{ Intn(n int) int }

// fuzzBytes deals two bytes per choice and zeros once spent.
type fuzzBytes []byte

func (b *fuzzBytes) Intn(n int) int {
	v := 0
	for i := 0; i < 2 && len(*b) > 0; i++ {
		v = v<<8 | int((*b)[0])
		*b = (*b)[1:]
	}
	return v % n
}

// randomOptions draws the option corners: caps of 0, 1, 2 and 1024, no
// retention or a window of up to 20 s, one shard or 64.
func randomOptions(ch chooser) (opts Options, shards int) {
	opts.MaxPerTarget = []int{0, 1, 2, 1024}[ch.Intn(4)]
	shards = []int{1, 64}[ch.Intn(2)]
	if ch.Intn(4) > 0 {
		opts.Retention = time.Duration(1+ch.Intn(20)) * time.Second
	}
	return opts, shards
}

// wrapKeys returns n targets whose home slot lies in the last eighth of any
// table (the last slot of an 8-slot one), so together their probe chains
// wrap past slot 0, and entries with homes all along the table's end sit on
// them.
func wrapKeys(n int) []graph.VertexID {
	var out []graph.VertexID
	for c := graph.VertexID(1); len(out) < n; c++ {
		if uint64(c)*fibHash>>61 == 7 {
			out = append(out, c)
		}
	}
	return out
}

// opTargets are runOps' 48 targets: 0–23, and 24 whose probe chains wrap.
var opTargets = append(func() (ids []graph.VertexID) {
	for c := range 24 {
		ids = append(ids, graph.VertexID(c))
	}
	return ids
}(), wrapKeys(24)...)

// runOps drives steps random operations over opTargets and 16 sources, so
// (B, C) pairs repeat: near-ordered inserts with stragglers up to a window
// late, probes, sweeps at arbitrary times — some past every edge, some
// twice between two cuts — cuts, snapshots, and loads and resets
// mid-sequence. It ends with a cut and a snapshot.
func runOps(t testing.TB, opts Options, shards int, ch chooser, steps int) {
	d := newDiffer(t, opts, shards)
	window := max(opts.Retention.Milliseconds(), 1_000)
	ts := int64(1_000_000)
	target := func() graph.VertexID { return opTargets[ch.Intn(len(opTargets))] }
	for i := 0; i < steps; i++ {
		switch k := ch.Intn(100); {
		case k < 70:
			ts += int64(ch.Intn(int(window / 8)))
			straggle := int64(0)
			if ch.Intn(8) == 0 {
				straggle = int64(ch.Intn(int(window)))
			}
			d.insert(graph.Edge{Src: graph.VertexID(ch.Intn(16)), Dst: target(), TS: ts - straggle})
		case k < 82:
			d.recent(target(), ts-int64(ch.Intn(int(2*window))), ch.Intn(5))
		case k < 88:
			d.sweep(ts + int64(ch.Intn(int(2*window))) - window/2)
		case k < 94:
			d.capture()
		case k < 97:
			d.write()
		case k < 99:
			d.load()
		default:
			d.reset()
		}
		d.stats()
	}
	d.capture()
	d.write()
}

// TestStoreMatchesReference holds the flat shards to the map-of-lists store
// they replaced: every Insert return, RecentLimitInto answer, Sweep count,
// Stats, snapshot and sealed cut must be equal, and no
// cut may carry a key twice. The stream shapes are the benchmark's — follow
// bursts over a 60 s window with a quarter of content events (steady), 95 %
// content events, nearly every one a fresh target (quiet), and steady's mix
// eight times thinner (multiquery) — with the engine's minute sweeps, a cut
// per 50 s and a fanout-64 probe per follow; the sweeps subtest takes a
// table near full through in-place sweeps of every depth, among probe chains
// that wrap past slot 0, down to the rebuild of a table and an arena far
// larger than what is left; the random sequences cover the option corners.
func TestStoreMatchesReference(t *testing.T) {
	const window = 60_000
	for _, shape := range []struct {
		name      string
		content   float64
		perWindow int
	}{{"steady", 0.25, 24_000}, {"quiet", 0.95, 24_000}, {"multiquery", 0.25, 3_000}} {
		t.Run(shape.name, func(t *testing.T) {
			stream := workload.GenEventStream(workload.StreamConfig{
				Users: 20_000, Events: 4 * shape.perWindow, Rate: float64(shape.perWindow) / 60,
				BurstFraction: 0.35, BurstMeanSize: 12, BurstWindow: time.Minute,
				ContentFraction: shape.content, ZipfS: 1.35, Seed: 7,
			})
			d := newDiffer(t, Options{Retention: time.Minute, MaxPerTarget: 1024}, shardCount)
			lastSweep, lastCut := stream[0].TS, stream[0].TS
			for _, e := range stream {
				d.insert(e)
				if e.Type == graph.Follow {
					d.recent(e.Dst, e.TS-window, 64)
				}
				if e.TS-lastSweep >= window {
					d.sweep(e.TS)
					lastSweep = e.TS
				}
				if e.TS-lastCut >= 50_000 {
					d.capture()
					d.stats()
					lastCut = e.TS
				}
			}
			d.write()
		})
	}
	t.Run("sweeps", func(t *testing.T) {
		for _, shards := range []int{1, 4} {
			sweepRounds(t, shards)
		}
	})
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(29))
		for trial := 0; trial < 300; trial++ {
			opts, shards := randomOptions(r)
			runOps(t, opts, shards, r, 1_000)
		}
	})
}

// sweepRounds fills a store of the given shard count with 192 targets, 64
// of them wrapping — a one-shard table is then 3/4 full — each
// with an edge at its own time in a shuffled order, and sweeps a tenth, half,
// nine tenths, all but three and all of them away, refilling in between.
// After each refill and each sweep every target is probed and a cut taken: a
// target left where its probe chain cannot reach it, a stale span reused by
// a new target or a lost dirty mark shows up against the reference.
func sweepRounds(t *testing.T, shards int) {
	const window = 60_000
	d := newDiffer(t, Options{Retention: time.Minute}, shards)
	keys := wrapKeys(64)
	for c := range 128 {
		keys = append(keys, graph.VertexID(1_000+c))
	}
	r := rand.New(rand.NewSource(int64(shards)))
	base := int64(1_000_000)
	for _, keep := range []int{173, 96, 19, 3, 0} {
		for i, k := range r.Perm(len(keys)) {
			d.insert(graph.Edge{Src: graph.VertexID(i % 7), Dst: keys[k], TS: base + int64(i)})
		}
		probe := func() {
			for _, c := range keys {
				d.recent(c, 0, 0)
			}
			d.stats()
			d.capture()
		}
		probe()
		d.sweep(base + int64(len(keys)-keep) + window)
		probe()
		d.write()
		base += 2 * window
	}
}

// FuzzStoreMatchesReference is TestStoreMatchesReference's random sequences
// drawn from the fuzzer's bytes: the first choose the options, the rest up
// to 1 000 operations (snapshots make a sequence's cost quadratic in its
// length).
func FuzzStoreMatchesReference(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 600)
		r.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ch := fuzzBytes(data)
		opts, shards := randomOptions(&ch)
		runOps(t, opts, shards, &ch, min(len(ch)/4, 1_000))
	})
}
