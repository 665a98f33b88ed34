// Package core ties the paper's two logical components together: "the
// partitioned graph infrastructure that maintains the relevant data
// structures" (S and D) and "the 'program' that performs the motif
// detection" (§3). An Engine is the partition-local unit: it owns one S
// snapshot, one D store, and a set of motif programs, and turns a stream of
// dynamic edges into recommendation candidates. The cluster packages stack
// partitioning, replication, brokers, and delivery on top.
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/motif"
	"motifstream/internal/statstore"
)

// Config assembles an Engine.
type Config struct {
	// Static is the S store. Required.
	Static *statstore.Store
	// Dynamic is the D store. Required.
	Dynamic *dynstore.Store
	// Programs are the motif programs to run per edge, in order. At least
	// one is required.
	Programs []motif.Program
	// Follows optionally reports existing a→c follows for candidate
	// suppression.
	Follows func(a, c graph.VertexID) bool
	// Metrics receives engine instrumentation; nil creates a private
	// registry.
	Metrics *metrics.Registry
	// SweepInterval is the stream-time interval between background D
	// prunes; zero selects one minute.
	SweepInterval time.Duration
	// DisableSharing runs every planned program as an independent per-event
	// scan instead of grouping common probe prefixes. The shared and
	// independent paths produce identical candidates; the knob exists for
	// differential tests and for measuring the sharing win.
	DisableSharing bool
}

// Engine applies dynamic edges to D and runs motif programs. Safe for
// concurrent Apply calls.
type Engine struct {
	static  *statstore.Store
	dynamic *dynstore.Store
	ctx     *motif.Context
	progs   []progEntry

	// Shared execution trie: planned programs with a common probe prefix
	// (equal ShareKey) run the per-event D/S work once. groupSlots[i]
	// holds the registration index of each member of groups[i], so group
	// results land in their registration-order slots.
	groups     []*motif.PlannedGroup
	groupSlots [][]int
	// scansSavedPerEvent is the number of per-event program invocations
	// sharing avoids versus independent execution: sum over groups of
	// (members - 1).
	scansSavedPerEvent int

	stats *graph.LiveDegreeStats

	reg           *metrics.Registry
	events        *metrics.Counter
	candidates    *metrics.Counter
	queryLatency  *metrics.Histogram
	ingestLatency *metrics.Histogram

	sweepEvery int64 // ms of stream time between sweeps
	lastSweep  atomic.Int64
}

// progEntry caches the ScratchProgram assertion per program so the hot
// path does not repeat the interface check on every edge.
type progEntry struct {
	p  motif.Program
	sp motif.ScratchProgram // non-nil when p implements the scratch path
	// grouped marks programs executed by a shared group; their candidates
	// are picked up from the result slot instead of a direct invocation.
	grouped bool
}

// NewEngine validates cfg and constructs an Engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Static == nil {
		return nil, fmt.Errorf("core: Config.Static is required")
	}
	if cfg.Dynamic == nil {
		return nil, fmt.Errorf("core: Config.Dynamic is required")
	}
	if len(cfg.Programs) == 0 {
		return nil, fmt.Errorf("core: at least one motif program is required")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	sweep := cfg.SweepInterval
	if sweep <= 0 {
		sweep = time.Minute
	}
	stats := &graph.LiveDegreeStats{}
	e := &Engine{
		static:  cfg.Static,
		dynamic: cfg.Dynamic,
		stats:   stats,
		ctx: &motif.Context{
			S:       cfg.Static,
			D:       cfg.Dynamic,
			Follows: cfg.Follows,
			Stats:   stats,
		},
		reg:           reg,
		events:        reg.Counter("engine.events"),
		candidates:    reg.Counter("engine.candidates"),
		queryLatency:  reg.Histogram("engine.query_latency"),
		ingestLatency: reg.Histogram("engine.ingest_latency"),
		sweepEvery:    sweep.Milliseconds(),
	}
	for _, p := range cfg.Programs {
		ent := progEntry{p: p}
		ent.sp, _ = p.(motif.ScratchProgram)
		e.progs = append(e.progs, ent)
	}
	if !cfg.DisableSharing {
		if err := e.buildGroups(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// buildGroups partitions the planned programs by ShareKey and forms a
// shared group for every key with at least two members (a singleton gains
// nothing from the group machinery). Group members keep their
// registration indices so candidate assembly stays in registration order.
func (e *Engine) buildGroups() error {
	byKey := map[string][]int{}
	var keys []string
	for i := range e.progs {
		pp, ok := e.progs[i].p.(*motif.PlannedProgram)
		if !ok {
			continue
		}
		k := pp.ShareKey()
		if len(byKey[k]) == 0 {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	for _, k := range keys {
		idxs := byKey[k]
		if len(idxs) < 2 {
			continue
		}
		members := make([]*motif.PlannedProgram, len(idxs))
		for j, i := range idxs {
			members[j] = e.progs[i].p.(*motif.PlannedProgram)
			e.progs[i].grouped = true
		}
		g, err := motif.NewPlannedGroup(members)
		if err != nil {
			return fmt.Errorf("core: grouping programs: %w", err)
		}
		e.groups = append(e.groups, g)
		e.groupSlots = append(e.groupSlots, idxs)
		e.scansSavedPerEvent += len(idxs) - 1
	}
	if len(e.groups) > 0 {
		e.reg.Counter("engine.shared_groups").Add(uint64(len(e.groups)))
		e.reg.Counter("engine.shared_group_members").Add(uint64(len(e.groups) + e.scansSavedPerEvent))
	}
	return nil
}

// Apply ingests one dynamic edge: inserts it into D exactly once, runs
// every program, and returns the combined candidates. Two histograms time
// the work: engine.query_latency covers only the program-execution span —
// the paper's "the actual graph queries take only a few milliseconds" claim
// is checked against this — while engine.ingest_latency covers the full
// span including the D-store insert.
func (e *Engine) Apply(edge graph.Edge) []motif.Candidate {
	s := motif.GetScratch()
	out := e.applyOne(edge, s)
	motif.PutScratch(s)
	e.events.Inc()
	e.candidates.Add(uint64(len(out)))
	e.maybeSweep(edge.TS)
	return out
}

// applyOne inserts edge into D, runs every program with the given scratch,
// and observes the latency histograms. Counters and sweeps are the
// caller's responsibility so batched callers can amortize them.
func (e *Engine) applyOne(edge graph.Edge, s *motif.Scratch) []motif.Candidate {
	start := time.Now()
	e.dynamic.Insert(edge)
	detect := time.Now()
	var out []motif.Candidate
	var res [][]motif.Candidate
	if len(e.groups) > 0 {
		// Shared prefixes first: each group runs its trigger filter and
		// D/S probes once, parking member results in their registration
		// slots. Programs are read-only past the D insert above, so
		// running groups ahead of ungrouped programs cannot change any
		// result — only the assembly below determines candidate order.
		res = s.ResultSlots(len(e.progs))
		for gi, g := range e.groups {
			g.DetectInto(e.ctx, edge, s, res, e.groupSlots[gi])
		}
	}
	for i := range e.progs {
		ent := &e.progs[i]
		var cands []motif.Candidate
		switch {
		case ent.grouped:
			cands = res[i]
			res[i] = nil
		case ent.sp != nil:
			cands = ent.sp.OnEdgeScratch(e.ctx, edge, s)
		default:
			cands = ent.p.OnEdge(e.ctx, edge)
		}
		if len(cands) > 0 {
			if out == nil {
				out = cands
			} else {
				out = append(out, cands...)
			}
		}
	}
	end := time.Now()
	e.queryLatency.Observe(end.Sub(detect))
	e.ingestLatency.Observe(end.Sub(start))
	return out
}

// DetectBatch ingests edges[i] and stores its candidates into out[i]
// (which must have len(edges) slots), amortizing scratch acquisition and
// counter updates across the batch. It deliberately does NOT advance the
// sweep clock: batched callers sequence sweeps explicitly through
// SweepDue/MaybeSweep so that concurrent DetectBatch calls cannot race a
// prune. Concurrent calls are safe and equivalent to some sequential
// interleaving provided no two concurrent batches share an edge target —
// programs only read D at the triggering edge's target (see
// motif.Program's locality contract), so per-target insert order is all
// that matters.
func (e *Engine) DetectBatch(edges []graph.Edge, out [][]motif.Candidate) {
	if len(edges) == 0 {
		return
	}
	s := motif.GetScratch()
	total := 0
	for i, edge := range edges {
		out[i] = e.applyOne(edge, s)
		total += len(out[i])
	}
	motif.PutScratch(s)
	e.events.Add(uint64(len(edges)))
	e.candidates.Add(uint64(total))
}

// ApplyBatch runs edges through the sequence a replica's apply loop runs
// — DetectBatch over each run of edges up to the first one where a sweep is
// due, then the sweep — with out[i] receiving edge i's candidates (out must
// have len(edges) slots). Results equal calling Apply on each edge in
// order. Nothing in this module calls it: it is kept for the layer replay
// in benchmark/ (a nested module this tree must keep building), which
// times one engine against partition.Apply on the same chunk.
func (e *Engine) ApplyBatch(edges []graph.Edge, out [][]motif.Candidate) {
	for lo := 0; lo < len(edges); {
		hi := lo + 1
		for hi < len(edges) && !e.SweepDue(edges[hi-1].TS) {
			hi++
		}
		e.DetectBatch(edges[lo:hi], out[lo:hi])
		e.maybeSweep(edges[hi-1].TS)
		lo = hi
	}
}

// SweepDue reports whether a D prune would trigger at stream time nowMS,
// without performing one. The cluster's apply loop uses it to end a batch
// at the first edge where a sweep is due.
func (e *Engine) SweepDue(nowMS int64) bool {
	return nowMS-e.lastSweep.Load() >= e.sweepEvery
}

// MaybeSweep prunes D if a sweep is due at nowMS. Exported for batched
// callers that sequence sweeps in their ordered commit stage.
func (e *Engine) MaybeSweep(nowMS int64) { e.maybeSweep(nowMS) }

// maybeSweep prunes D when enough stream time has elapsed. Pruning is
// driven by stream time, not wall time, so replayed/simulated streams prune
// identically to live ones. The clock is a CAS so the due-check costs one
// atomic load on the hot path; a lost race means another goroutine claimed
// this sweep.
func (e *Engine) maybeSweep(nowMS int64) {
	last := e.lastSweep.Load()
	if nowMS-last < e.sweepEvery {
		return
	}
	if e.lastSweep.CompareAndSwap(last, nowMS) {
		e.dynamic.Sweep(nowMS)
	}
}

// ReloadStatic swaps in a freshly built S snapshot, modeling the periodic
// offline load of the paper.
func (e *Engine) ReloadStatic(s *statstore.Snapshot) { e.static.Reload(s) }

// Static returns the engine's S store.
func (e *Engine) Static() *statstore.Store { return e.static }

// Dynamic returns the engine's D store.
func (e *Engine) Dynamic() *dynstore.Store { return e.dynamic }

// Metrics returns the engine's registry.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// LiveDegrees returns the incrementally maintained degree views fed by the
// detection hot path. Compile motifs with motifdsl.CompileLive against
// this view to let the planner order probes from live quantiles.
func (e *Engine) LiveDegrees() *graph.LiveDegreeStats { return e.stats }

// SharingStats describes the engine's shared execution trie.
type SharingStats struct {
	// Programs is the number of registered programs.
	Programs int
	// Groups is the number of shared-prefix groups (>= 2 members each).
	Groups int
	// GroupedPrograms is the number of programs executed through a group.
	GroupedPrograms int
	// ScansSavedPerEvent is the per-event program invocations avoided by
	// sharing: sum over groups of (members - 1).
	ScansSavedPerEvent int
}

// SharedFraction is the fraction of per-event program scans the trie
// eliminates relative to independent execution.
func (s SharingStats) SharedFraction() float64 {
	if s.Programs == 0 {
		return 0
	}
	return float64(s.ScansSavedPerEvent) / float64(s.Programs)
}

// Sharing reports how the registered programs were grouped.
func (e *Engine) Sharing() SharingStats {
	grouped := 0
	for i := range e.progs {
		if e.progs[i].grouped {
			grouped++
		}
	}
	return SharingStats{
		Programs:           len(e.progs),
		Groups:             len(e.groups),
		GroupedPrograms:    grouped,
		ScansSavedPerEvent: e.scansSavedPerEvent,
	}
}

// Stats summarizes engine activity.
type Stats struct {
	Events     uint64
	Candidates uint64
	// QueryLatency is the program-execution span only (the paper's
	// "queries take a few milliseconds" claim).
	QueryLatency metrics.Snapshot
	// IngestLatency is the full per-event span: D insert plus programs.
	IngestLatency metrics.Snapshot
	Dynamic       dynstore.Stats
}

// Stats returns current counters and store sizes.
func (e *Engine) Stats() Stats {
	return Stats{
		Events:        e.events.Value(),
		Candidates:    e.candidates.Value(),
		QueryLatency:  e.queryLatency.Snapshot(),
		IngestLatency: e.ingestLatency.Snapshot(),
		Dynamic:       e.dynamic.Stats(),
	}
}
