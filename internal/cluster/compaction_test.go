package cluster

import (
	"path/filepath"
	"testing"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/partition"
)

// TestCompactionUnderLoadChaos is the incremental pipeline's
// fault-equivalence check: with aggressive checkpoint cadence, a tiny
// compaction threshold (chains fold constantly), firehose truncation
// active, and a replica crash/restore mid-stream, the delivered
// notification set must exactly match a no-fault oracle run.
func TestCompactionUnderLoadChaos(t *testing.T) {
	static := ringStatic(50)
	stream := motifWorkload(77, 50, 700)

	run := func(chaos bool) (map[noteKey]int, *Cluster) {
		cfg := recoveryConfig(t, static)
		cfg.CheckpointInterval = 3 * time.Second // stream time: cuts constantly
		cfg.CompactEvery = 2                     // fold chains constantly
		cfg.LogSegmentBytes = 2 << 10            // the log truncates whole segments
		notes := collectNotes(&cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		killAt := len(stream) / 4
		restoreAt := len(stream) / 2
		for i, e := range stream {
			if chaos {
				if i == killAt {
					for pid := 0; pid < cfg.Partitions; pid++ {
						if err := c.KillReplica(pid, 1); err != nil {
							t.Fatal(err)
						}
					}
				}
				if i == restoreAt {
					for pid := 0; pid < cfg.Partitions; pid++ {
						if err := c.RestoreReplica(pid, 1); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if err := c.Publish(e); err != nil {
				t.Fatal(err)
			}
		}
		c.Stop()
		if chaos {
			for pid := 0; pid < cfg.Partitions; pid++ {
				if state, _ := c.ReplicaState(pid, 1); state != "live" {
					t.Fatalf("partition %d replica 1 state = %q after drain", pid, state)
				}
			}
			// Recovered replicas converge to their surviving peers.
			for pid := 0; pid < cfg.Partitions; pid++ {
				restored, _ := c.Replica(pid, 1)
				peer, _ := c.Replica(pid, 0)
				got := restored.Engine().Dynamic().Stats()
				want := peer.Engine().Dynamic().Stats()
				if got != want {
					t.Fatalf("partition %d recovered D stats %+v != peer %+v", pid, got, want)
				}
			}
		}
		return notes(), c
	}

	want, _ := run(false)
	got, c := run(true)
	if len(want) == 0 {
		t.Fatal("vacuous: oracle delivered nothing")
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("notification %v: chaos run delivered %d, oracle %d (lost or duplicated)", k, got[k], n)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("chaos run delivered %v, oracle did not", k)
		}
	}
	compactions, below := counter(t, c, "cluster.compactions"), c.Stats().LogTruncatedBelow
	if compactions == 0 {
		t.Fatal("vacuous: no compactions ran under load")
	}
	if below == 0 {
		t.Fatal("vacuous: firehose log never truncated")
	}
	t.Logf("compaction chaos: %d notifications identical, %d checkpoints, %d compactions, log truncated below %d",
		len(want), counter(t, c, "cluster.checkpoints"), compactions, below)
}

// TestLogTruncationBoundedByDurableFloor checks the compaction safety
// invariant end to end: the firehose log is only truncated below every
// replica's durable restore floor, so a kill/restore after truncation
// still replays cleanly and converges.
func TestLogTruncationBoundedByDurableFloor(t *testing.T) {
	cfg := recoveryConfig(t, ringStatic(40))
	cfg.CheckpointInterval = 3 * time.Second
	cfg.CompactEvery = 2
	cfg.LogSegmentBytes = 2 << 10 // the log truncates whole segments
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	stream := motifWorkload(55, 40, 500)
	half := len(stream) / 2
	for _, e := range stream[:half] {
		c.Publish(e)
	}
	if err := c.KillReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	for _, e := range stream[half:] {
		c.Publish(e)
	}
	c.Stop()
	st := c.Stats()
	if st.LogTruncatedBelow == 0 {
		t.Fatal("vacuous: log never truncated")
	}
	// The truncation horizon never exceeds any replica's floor.
	for _, group := range c.hub.slots {
		for _, s := range group {
			if f := s.floor.Load(); f < st.LogTruncatedBelow {
				t.Fatalf("log truncated below %d but replica %d/%d floor is %d",
					st.LogTruncatedBelow, s.pid, s.idx, f)
			}
		}
	}
	restored, _ := c.Replica(0, 1)
	peer, _ := c.Replica(0, 0)
	if got, want := restored.Engine().Dynamic().Stats(), peer.Engine().Dynamic().Stats(); got != want {
		t.Fatalf("post-truncation restore diverged: %+v != %+v", got, want)
	}
}

// TestFailedSegmentWriteCarriesDirtForward pins the chain's hole-freedom
// under persistence failures: CaptureDelta drains the dirty sets, so a
// cut whose segment write fails must be merged into the next cut rather
// than dropped, or later restores would silently miss its keys.
func TestFailedSegmentWriteCarriesDirtForward(t *testing.T) {
	cfg := recoveryConfig(t, fig1Static())
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	goodDir := replicaCkptDir(cfg.CheckpointDir, 0, 0)
	rep := c.host.replica(0, 0)
	rep.att = &fakeAttachment{} // never launched: nobody to report floors to
	w := &ckptWriter{
		h:   c.host,
		rep: rep,
		dir: filepath.Join(cfg.CheckpointDir, "no-such-parent", "dir"),
	}
	mkDelta := func(sweep int64, target graph.VertexID) *partition.Segment {
		return &partition.Segment{
			SweepClock: sweep,
			Targets:    dynstore.Targets{targetEntry(target, dynstore.InEdge{B: 1, TS: 100 + sweep})},
		}
	}
	// First cut fails to persist (unwritable directory): the dirt parks.
	w.appendSegment(ckptJob{delta: mkDelta(1, 7), offset: 10})
	if w.pending == nil {
		t.Fatal("failed cut not parked in pending")
	}
	if len(w.man.segs) != 0 {
		t.Fatalf("failed cut still entered the manifest: %v", w.man.segs)
	}
	// Second cut persists and must carry the first cut's keys.
	w.dir = goodDir
	w.appendSegment(ckptJob{delta: mkDelta(2, 9), offset: 20})
	if w.pending != nil {
		t.Fatal("pending not cleared after successful segment")
	}
	if len(w.man.segs) != 1 {
		t.Fatalf("manifest has %d segments, want 1", len(w.man.segs))
	}
	base, used, offset := composeChain(goodDir, w.man.segs, nil)
	if used != 1 || offset != 20 {
		t.Fatalf("composeChain = used %d offset %d", used, offset)
	}
	st := decodeBase(t, base)
	if _, ok := findTarget(st, 7); !ok {
		t.Fatal("failed cut's target 7 missing from the chain (hole)")
	}
	if _, ok := findTarget(st, 9); !ok {
		t.Fatal("second cut's target 9 missing from the chain")
	}
}

// decodeBase decodes a base composeChain folded.
func decodeBase(t *testing.T, base []byte) *partition.Segment {
	t.Helper()
	st, err := partition.DecodeBase(base, nil)
	if err != nil {
		t.Fatalf("composed base does not decode: %v", err)
	}
	return st
}

// findTarget looks c up in a segment's D section.
func findTarget(st *partition.Segment, c graph.VertexID) ([]dynstore.InEdge, bool) {
	for _, e := range st.Targets {
		if e.Key == c {
			return e.Val, true
		}
	}
	return nil, false
}

// TestWriterCarriesTombstones takes a deletion through the writer's two
// carry paths. Target 7 is inserted in a cut that lands, then swept in a
// cut that does not land on its own — its write fails and it rides in
// pending, or it is coalesced with the cut queued behind it. Either way the
// tombstone must survive the merge of deltas (an older segment still holds
// 7) and die only in the compactor's fold: the composed base does not hold
// 7 and fingerprints equal to the live partition.
func TestWriterCarriesTombstones(t *testing.T) {
	for _, leg := range []string{"failed write", "coalesced"} {
		t.Run(leg, func(t *testing.T) {
			cfg := recoveryConfig(t, fig1Static())
			cfg.CompactEvery = 1 << 20 // the test compacts by hand
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dir := replicaCkptDir(cfg.CheckpointDir, 0, 0)
			rep := c.host.replica(0, 0)
			rep.att = &fakeAttachment{} // never launched: nobody to report floors to
			w := &ckptWriter{h: c.host, rep: rep, dir: dir, jobs: make(chan ckptJob, 2), done: make(chan struct{})}
			p, t0 := rep.p, int64(10_000_000)
			cut := func(offset uint64) ckptJob { return ckptJob{delta: p.CaptureDelta(), offset: offset} }

			p.Apply(graph.Edge{Src: 1, Dst: 7, Type: graph.Follow, TS: t0})
			w.appendSegment(cut(10))
			// Ninety minutes on, past the hour's retention, 7 is swept.
			later := t0 + 90*time.Minute.Milliseconds()
			p.Apply(graph.Edge{Src: 2, Dst: 9, Type: graph.Follow, TS: later})
			p.Engine().Dynamic().Sweep(later)
			swept := cut(20)
			if list, ok := findTarget(swept.delta, 7); !ok || len(list) != 0 {
				t.Fatalf("vacuous: the second cut carries no tombstone for 7 (%v, %v)", list, ok)
			}
			p.Apply(graph.Edge{Src: 3, Dst: 11, Type: graph.Follow, TS: later + 1})
			last := cut(30)

			if leg == "failed write" {
				w.dir = filepath.Join(cfg.CheckpointDir, "no-such-parent", "dir")
				w.appendSegment(swept)
				if w.pending == nil {
					t.Fatal("failed cut not parked in pending")
				}
				w.dir = dir
				w.appendSegment(last)
			} else {
				w.jobs <- swept
				w.jobs <- last
				close(w.jobs)
				w.run()
			}
			if len(w.man.segs) != 2 || w.man.segs[1].offset != 30 {
				t.Fatalf("chain is %v, want cut 10 and one carried segment at 30", w.man.segs)
			}
			w.compact()
			if len(w.man.segs) != 1 || w.man.segs[0].kind != segKindBase {
				t.Fatalf("chain did not compact: %v", w.man.segs)
			}
			base, used, offset := composeChain(dir, w.man.segs, nil)
			if used != 1 || offset != 30 {
				t.Fatalf("composeChain = used %d offset %d", used, offset)
			}
			st := decodeBase(t, base)
			if list, ok := findTarget(st, 7); ok {
				t.Fatalf("swept target 7 is back in the composed chain: %v", list)
			}
			for _, kept := range []graph.VertexID{9, 11} {
				if _, ok := findTarget(st, kept); !ok {
					t.Fatalf("target %d missing from the composed chain", kept)
				}
			}
			got := partition.FingerprintOf(base)
			if want := fingerprint(p); got != want {
				t.Fatalf("composed fingerprint %08x, live partition %08x", got, want)
			}
		})
	}
}

func TestClampChainPrefix(t *testing.T) {
	segs := []segmentRef{
		{kind: segKindBase, seq: 1, offset: 3},
		{kind: segKindDelta, seq: 2, offset: 7},
		{kind: segKindDelta, seq: 3, offset: 12},
	}
	for _, tc := range []struct {
		limit uint64
		want  int
	}{
		{0, 0}, {2, 0}, {3, 1}, {7, 2}, {11, 2}, {12, 3}, {100, 3},
	} {
		if got := clampChainPrefix(segs, tc.limit); got != tc.want {
			t.Fatalf("clampChainPrefix(limit=%d) = %d, want %d", tc.limit, got, tc.want)
		}
	}
	if got := clampChainPrefix(nil, 5); got != 0 {
		t.Fatalf("clampChainPrefix(nil) = %d", got)
	}
}
