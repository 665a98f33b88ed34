package motifstream

import (
	"fmt"
	"time"

	"motifstream/internal/core"
	"motifstream/internal/dynstore"
	"motifstream/internal/metrics"
	"motifstream/internal/motif"
	"motifstream/internal/statstore"
)

// Options configures a single-node System.
type Options struct {
	// K is the support threshold: how many of a user's followings must
	// act on the same item within the window (paper: k; production 3).
	// Zero selects 3.
	K int
	// Window is the primary diamond's freshness window τ. Zero selects 10
	// minutes. D keeps stream edges for the longest window any program
	// reads: this one, an ExtraPrograms plan's or a registered motif's
	// `within`.
	Window time.Duration
	// EdgeTypes are the stream actions that trigger detection; empty
	// means follows only.
	EdgeTypes []EdgeType
	// MaxInfluencers caps the followings considered per user when
	// building the static store, the paper's quality/memory lever.
	// Zero means unlimited.
	MaxInfluencers int
	// MaxFanout caps the recent actors considered per event, bounding
	// work on viral items. Zero selects 256; negative means unlimited, up
	// to the 1024 newest in-edges D keeps per item (its celebrity cap).
	MaxFanout int
	// SuppressKnown drops a recommendation of an item to a user whom the
	// static edges show following it already, for every program. It is off
	// unless set (a cluster's partitions always suppress). Content items
	// are tweet vertices, which no static follow reaches, so in effect it
	// filters follow recommendations.
	SuppressKnown bool
	// ExtraPrograms are plans run after the primary diamond: CompileMotif's
	// output or NewTriangleClosure. New rejects any other Program, nil
	// included.
	ExtraPrograms []Program
	// motifs holds the plans RegisterMotifs compiled, run after
	// ExtraPrograms.
	motifs []Program
}

// RegisterMotifs validates src — one or more motif declarations in the
// DSL of docs/QUERIES.md — and adds it to the standing-query set the
// system runs alongside the primary diamond. Call any number of times
// before New; an invalid source is rejected without modifying the set.
func (o *Options) RegisterMotifs(src string) error {
	return registerMotifs(&o.motifs, src)
}

// System is the single-node detection engine: one S snapshot, one D store,
// and one or more motif programs. Safe for concurrent Apply calls.
type System struct {
	engine *core.Engine
	opts   Options
}

// New builds a System from the static A→B follow edges.
func New(staticEdges []Edge, opts Options) (*System, error) {
	primary, err := primaryDiamond(opts.K, opts.Window, opts.EdgeTypes, opts.MaxFanout)
	if err != nil {
		return nil, err
	}
	for i, p := range opts.ExtraPrograms {
		if plan, _ := p.(*motif.PlannedProgram); plan == nil {
			return nil, fmt.Errorf("motifstream: ExtraPrograms[%d] (%T) is not a plan from CompileMotif or NewTriangleClosure", i, p)
		}
	}
	programs := append(append([]motif.Program{primary}, opts.ExtraPrograms...), opts.motifs...)

	s := &System{opts: opts}
	static := statstore.New(s.buildStatic(staticEdges))
	var follows func(a, c VertexID) bool
	if opts.SuppressKnown {
		follows = func(a, c VertexID) bool { return static.Snapshot().Follows(a, c) }
	}
	s.engine, err = core.NewEngine(core.Config{
		Static:   static,
		Dynamic:  dynstore.New(dynamicOptions(programs)),
		Programs: programs,
		Follows:  follows,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// buildStatic builds S and the already-follows index from staticEdges.
func (s *System) buildStatic(staticEdges []Edge) *statstore.Snapshot {
	return (&statstore.Builder{MaxInfluencers: s.opts.MaxInfluencers}).Build(staticEdges)
}

// dynamicOptions sizes D for the programs both facades run, every one a
// plan: it keeps the longest window any of them reads, so no program misses
// a support D already pruned, and caps the in-edges kept per item at 1024,
// bounding per-event work on viral items — only the most recent in-edges
// matter for k-threshold detection.
func dynamicOptions(programs []motif.Program) dynstore.Options {
	var ms int64
	for _, p := range programs {
		for _, w := range p.(*motif.PlannedProgram).Shape().WindowMS {
			ms = max(ms, w)
		}
	}
	return dynstore.Options{Retention: time.Duration(ms) * time.Millisecond, MaxPerTarget: 1024}
}

// primaryDiamond builds the plan both facades run first, applying their
// shared defaults — K 0 selects 3, a Window <= 0 ten minutes, MaxFanout 0
// selects 256 and negative means unlimited — and refusing what no plan can
// express.
func primaryDiamond(k int, window time.Duration, edgeTypes []EdgeType, maxFanout int) (motif.Program, error) {
	if k == 0 {
		k = 3
	}
	if k < 2 {
		return nil, fmt.Errorf("motifstream: K must be >= 2, got %d", k)
	}
	if window <= 0 {
		window = 10 * time.Minute
	}
	if window < time.Millisecond {
		return nil, fmt.Errorf("motifstream: Window %s is under a millisecond, the resolution of stream time", window)
	}
	for _, t := range edgeTypes {
		if int(t) >= motif.NumEdgeTypes {
			return nil, fmt.Errorf("motifstream: EdgeTypes holds %d, which is not an edge type", t)
		}
	}
	if maxFanout == 0 {
		maxFanout = 256
	} else if maxFanout < 0 {
		maxFanout = 0 // DiamondConfig's "unlimited"
	}
	return motif.NewDiamond(motif.DiamondConfig{
		K: k, Window: window, EdgeTypes: edgeTypes, MaxFanout: maxFanout,
	}), nil
}

// Apply ingests one stream edge and returns the recommendations whose
// motif it completed.
func (s *System) Apply(e Edge) []Candidate {
	return s.engine.Apply(e)
}

// ReloadStatic swaps in S and the already-follows index built from
// staticEdges, modeling the paper's periodic offline S load. Both are one
// Snapshot, swapped by one Store.Reload, so a concurrent Apply reads whole
// builds, never a partly built one; only an Apply straddling the reload can
// check a candidate drawn from the old S against the new index.
func (s *System) ReloadStatic(staticEdges []Edge) {
	s.engine.ReloadStatic(s.buildStatic(staticEdges))
}

// Stats summarizes engine activity.
type Stats struct {
	// Events is the number of stream edges applied.
	Events uint64
	// Candidates is the total recommendations emitted.
	Candidates uint64
	// QueryP50 and QueryP99 are graph-query latency quantiles — the
	// paper's "the actual graph queries take only a few milliseconds".
	// They cover the program-execution span only; see IngestP50/P99 for
	// the full per-event cost.
	QueryP50, QueryP99 time.Duration
	// IngestP50 and IngestP99 are the full per-event latency quantiles:
	// the D-store insert plus every program.
	IngestP50, IngestP99 time.Duration
	// RetainedEdges is the current D store size.
	RetainedEdges int64
	// RetainedBytes is the size of D's arrays (dynstore.Store.MemoryBytes).
	RetainedBytes uint64
}

// Stats returns current counters.
func (s *System) Stats() Stats {
	reg := s.engine.Metrics()
	query := reg.Histogram("engine.query_latency").Snapshot()
	ingest := reg.Histogram("engine.ingest_latency").Snapshot()
	return Stats{
		Events:        reg.Counter("engine.events").Value(),
		Candidates:    reg.Counter("engine.candidates").Value(),
		QueryP50:      query.P50,
		QueryP99:      query.P99,
		IngestP50:     ingest.P50,
		IngestP99:     ingest.P99,
		RetainedEdges: s.engine.Dynamic().Stats().Edges,
		RetainedBytes: s.engine.Dynamic().MemoryBytes(),
	}
}

// Metrics exposes the engine's full metrics registry.
func (s *System) Metrics() *metrics.Registry { return s.engine.Metrics() }

// NewTriangleClosure returns the plan of the co-action triangle motif: when
// B acts on item C, recommend following B to users who also acted on C
// within the window — the paper's §3 point that other motifs run as one more
// program over the same S/D infrastructure. Pass it via Options.ExtraPrograms.
func NewTriangleClosure(window time.Duration) Program {
	return motif.NewTriangleClosure(window)
}
