// Package core ties the paper's two logical components together: "the
// partitioned graph infrastructure that maintains the relevant data
// structures" (S and D) and "the 'program' that performs the motif
// detection" (§3). An Engine is the partition-local unit: it owns one S
// snapshot, one D store, and a set of motif plans, and turns a stream of
// dynamic edges into recommendation candidates. The cluster packages stack
// partitioning, replication, brokers, and delivery on top.
package core

import (
	"fmt"
	"sync"
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
	// Programs are the motif plans to run per edge, in order: each must be a
	// *motif.PlannedProgram. At least one is required.
	Programs []motif.Program
	// Follows optionally reports whether a must not be recommended c
	// (motif.Context.Follows): a follows c, or a is another partition's.
	Follows func(a, c graph.VertexID) bool
	// Metrics receives engine instrumentation; nil creates a private
	// registry.
	Metrics *metrics.Registry
	// SweepInterval is the stream-time interval between background D
	// prunes; zero selects one minute.
	SweepInterval time.Duration
}

// Engine applies dynamic edges to D and runs its plans through the motif
// package's group executor. Safe for concurrent Apply calls.
type Engine struct {
	static  *statstore.Store
	dynamic *dynstore.Store
	ctx     *motif.Context

	// Shared execution trie: every plan runs in a group, plans with a common
	// probe prefix (equal ShareKey) in the same one, so the per-event D/S
	// work runs once per key. groupSlots[i] holds the registration index of
	// each member of groups[i], so group results land in their
	// registration-order slots.
	groups     []*motif.PlannedGroup
	groupSlots [][]int
	sharing    SharingStats

	// scratches are the engine's idle detect scratches, as many as ran at
	// once, all bound to chunks: a hand-over's chunks come back to the engine
	// that issued them once its lease is released (DetectLeased).
	scratchMu sync.Mutex
	scratches []*motif.Scratch
	chunks    *motif.Recycler

	reg           *metrics.Registry
	events        *metrics.Counter
	candidates    *metrics.Counter
	queryLatency  *metrics.Histogram
	ingestLatency *metrics.Histogram

	sweepEvery int64 // ms of stream time between sweeps
	lastSweep  atomic.Int64
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
	e := &Engine{
		static:  cfg.Static,
		dynamic: cfg.Dynamic,
		ctx: &motif.Context{
			S:       cfg.Static,
			D:       cfg.Dynamic,
			Follows: cfg.Follows,
		},
		chunks:        motif.NewRecycler(),
		reg:           reg,
		events:        reg.Counter("engine.events"),
		candidates:    reg.Counter("engine.candidates"),
		queryLatency:  reg.Histogram("engine.query_latency"),
		ingestLatency: reg.Histogram("engine.ingest_latency"),
		sweepEvery:    sweep.Milliseconds(),
	}
	if err := e.buildGroups(cfg.Programs); err != nil {
		return nil, err
	}
	return e, nil
}

// buildGroups sorts the plans into groups, one per ShareKey in
// first-registration order; a nil entry or a program that is not a plan is an
// error. Group members keep their registration indices so candidate assembly
// stays in registration order. Only groups of two or more count as sharing.
func (e *Engine) buildGroups(progs []motif.Program) error {
	e.sharing.Programs = len(progs)
	groupOf := map[string]int{}
	var members [][]*motif.PlannedProgram
	for i, p := range progs {
		plan, ok := p.(*motif.PlannedProgram)
		switch {
		case p == nil || ok && plan == nil:
			return fmt.Errorf("core: Programs[%d] is nil", i)
		case !ok:
			return fmt.Errorf("core: Programs[%d] is a %T, not a plan: the engine runs *motif.PlannedProgram only", i, p)
		}
		gi, ok := groupOf[plan.ShareKey()]
		if !ok {
			gi = len(members)
			groupOf[plan.ShareKey()] = gi
			members = append(members, nil)
			e.groupSlots = append(e.groupSlots, nil)
		}
		members[gi] = append(members[gi], plan)
		e.groupSlots[gi] = append(e.groupSlots[gi], i)
	}
	for _, ms := range members {
		g, err := motif.NewPlannedGroup(ms)
		if err != nil {
			return fmt.Errorf("core: grouping programs: %w", err)
		}
		e.groups = append(e.groups, g)
		if len(ms) >= 2 {
			e.sharing.Groups++
			e.sharing.GroupedPrograms += len(ms)
			e.sharing.ScansSavedPerEvent += len(ms) - 1
		}
	}
	if e.sharing.Groups > 0 {
		e.reg.Counter("engine.shared_groups").Add(uint64(e.sharing.Groups))
		e.reg.Counter("engine.shared_group_members").Add(uint64(e.sharing.GroupedPrograms))
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
	out, _ := e.applyOne(edge, s)
	motif.PutScratch(s)
	e.events.Inc()
	e.candidates.Add(uint64(len(out)))
	e.maybeSweep(edge.TS)
	return out
}

// applyOne inserts edge into D, runs every program with the given scratch,
// and observes the latency histograms; it returns the candidates and their
// lease. Counters and sweeps are the caller's responsibility so batched
// callers can amortize them.
func (e *Engine) applyOne(edge graph.Edge, s *motif.Scratch) ([]motif.Candidate, motif.Lease) {
	start := time.Now()
	e.dynamic.Insert(edge)
	detect := time.Now()
	// Each group runs its trigger filter, D/S probes and threshold once,
	// staging member results under their registration slots. Plans are
	// read-only past the D insert above, so the order groups run in cannot
	// change any result — the hand-over alone determines candidate order: one
	// window of the scratch's chunk, assembled in registration order.
	for gi, g := range e.groups {
		g.StageInto(e.ctx, edge, s, e.groupSlots[gi])
	}
	out, lease := s.HandOver(nil)
	end := time.Now()
	e.queryLatency.Observe(end.Sub(detect))
	e.ingestLatency.Observe(end.Sub(start))
	return out, lease
}

// scratch returns a scratch for one detection. A leased one is an idle
// scratch of the engine's, or a new one, bound to its chunks. One that is not
// is pooled and recycles nothing (motif.GetScratch): a caller that never
// sees its leases cannot release them, so chunks bound to the engine would
// cost it a chunk header each beside the buffer.
func (e *Engine) scratch(leased bool) *motif.Scratch {
	if !leased {
		return motif.GetScratch()
	}
	e.scratchMu.Lock()
	defer e.scratchMu.Unlock()
	n := len(e.scratches)
	if n == 0 {
		return motif.NewScratch(e.chunks)
	}
	s := e.scratches[n-1]
	e.scratches[n-1] = nil
	e.scratches = e.scratches[:n-1]
	return s
}

// putScratch makes s, from scratch(leased), idle again.
func (e *Engine) putScratch(s *motif.Scratch, leased bool) {
	if !leased {
		motif.PutScratch(s)
		return
	}
	e.scratchMu.Lock()
	e.scratches = append(e.scratches, s)
	e.scratchMu.Unlock()
}

// ReleaseScratch drops the engine's idle scratches and the chunks waiting to
// be issued again, and lets every chunk released from now on go to the
// collector: a replica's apply loop calls it when it exits, so that an
// engine no one applies to holds no detection memory. No detection may be in
// flight. A later one starts afresh.
func (e *Engine) ReleaseScratch() {
	e.scratchMu.Lock()
	defer e.scratchMu.Unlock()
	e.chunks.Close()
	e.chunks, e.scratches = motif.NewRecycler(), nil
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
	e.DetectLeased(edges, out, nil)
}

// DetectLeased is DetectBatch that also stores out[i]'s lease in leases[i]
// when leases is non-nil (it then has len(edges) slots). Releasing a lease
// once out[i] is read — logged, delivered, encoded — lets the engine issue
// its chunks again; a lease never released costs an allocation, never a
// rewritten window (see motif.Candidate.Via). With nil leases the windows
// come from chunks no one recycles, as DetectBatch's and Apply's do.
func (e *Engine) DetectLeased(edges []graph.Edge, out [][]motif.Candidate, leases []motif.Lease) {
	if len(edges) == 0 {
		return
	}
	s := e.scratch(leases != nil)
	total := 0
	for i, edge := range edges {
		var lease motif.Lease
		out[i], lease = e.applyOne(edge, s)
		if leases != nil {
			leases[i] = lease
		}
		total += len(out[i])
	}
	e.putScratch(s, leases != nil)
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
// offline load of the paper. The single-node System calls it; a cluster
// replica never does, so every replica of a group serves one S.
func (e *Engine) ReloadStatic(s *statstore.Snapshot) { e.static.Reload(s) }

// Static returns the engine's S store.
func (e *Engine) Static() *statstore.Store { return e.static }

// Dynamic returns the engine's D store.
func (e *Engine) Dynamic() *dynstore.Store { return e.dynamic }

// Metrics returns the engine's registry.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// SharingStats describes the engine's shared execution trie.
type SharingStats struct {
	// Programs is the number of registered programs.
	Programs int
	// Groups is the number of shared-prefix groups (>= 2 members each).
	Groups int
	// GroupedPrograms is the number of programs executed through such a
	// group (a plan alone in its group is not counted).
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
func (e *Engine) Sharing() SharingStats { return e.sharing }
