package cluster

// Regression test for the scale-out-then-kill-original divergence (ROADMAP
// "Flake to investigate", fixed in PR 6). The root cause was a zombie cut:
// KillReplica stores replicaDead before closing quit, but the consumer's
// select could still drain buffered envelopes. The apply loop suppressed the
// candidate publish for those envelopes yet still ran the checkpoint cut,
// so a durable cut could claim offsets whose candidates were never handed
// to delivery. The restored replica resumed past the suppressed offset,
// and its first accepted emission jumped the group's high-water filter
// over the lost batch (~1-7% reproduction per run under load).
//
// The apply loop now gates the publish AND the cut on one state load, and
// the fingerprint audit layer asserts every replica's state agrees at
// every recorded offset. This scenario doubles as the nightly soak target
// (make soak-flake, -count=200).

import (
	"testing"
	"time"
)

func TestFlakeHuntScaleOutKillOriginal(t *testing.T) {
	const users = 50
	static := ringStatic(users)
	stream := motifWorkload(909, users, 500)

	newCfg := func() Config {
		cfg := durableConfig(t, static)
		cfg.CheckpointInterval = time.Second
		cfg.MirrorBases = 1
		cfg.Audit = true
		return cfg
	}

	oracleCfg := newCfg()
	oracleNotes := collectNotes(&oracleCfg)
	oracle, err := New(oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Start()
	for _, e := range stream {
		if err := oracle.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	oracle.Stop()

	faultCfg := newCfg()
	// The fault run uses the batched/parallel apply path: the zombie-cut
	// invariant (one state load gating publish AND cut) must hold in the
	// ordered-commit stage too, and the kill can now land mid-batch.
	faultCfg.ApplyBatch = 16
	faultCfg.ApplyWorkers = 2
	faultNotes := collectNotes(&faultCfg)
	h := newCrashHarness(t, faultCfg, stream)
	h.publishTo(0.3)
	idx := h.addAll()
	h.awaitAll(idx)
	h.publishTo(0.5)
	h.killAll(0)
	h.killAll(1)
	h.publishTo(0.8)
	h.restoreAll(0)
	h.restoreAll(1)

	// Before shutdown: every replica group's recorded fingerprints must
	// agree at every common offset — the audit layer's cross-replica check
	// is exactly the instrument that catches this divergence class.
	for pid := 0; pid < faultCfg.Partitions; pid++ {
		rep, err := h.c.VerifyFingerprints(pid)
		if err != nil {
			t.Fatalf("VerifyFingerprints(%d): %v", pid, err)
		}
		if len(rep.Mismatches) > 0 {
			t.Fatalf("partition %d: fingerprint mismatches: %+v", pid, rep.Mismatches)
		}
	}
	h.finish()

	assertSameNotes(t, oracleNotes(), faultNotes())
}
