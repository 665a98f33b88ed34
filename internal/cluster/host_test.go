package cluster

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"motifstream/internal/broker"
	"motifstream/internal/graph"
	"motifstream/internal/queue"
	"motifstream/internal/transport"
)

// fakeLink is the hubLink's test implementation: a scripted in-memory hub
// tier of one slot. It is what lets a replica host run against a hub that
// withholds acks or refuses an offer at a chosen point — neither of which
// the real links can be made to do on cue.
type fakeLink struct {
	// feed is the slot's firehose: a topic without a backend whose tail
	// holds the whole scripted stream, read from offset zero.
	feed *queue.Topic[graph.Edge]

	mu      sync.Mutex
	offers  []transport.CandMsg
	acks    int               // acked calls so far
	ackedFn func(n int) bool  // answer to the n-th acked call (1-based); nil = true
	offerFn func(n int) error // outcome of the n-th offer (1-based); nil = accept
	att     fakeAttachment
}

// fakeAttachment records what the host reports about its slot; its Close
// ends the slot's stream, as the contract asks.
type fakeAttachment struct {
	mu     sync.Mutex
	lives  int
	floors []uint64
	closed bool
	sub    *queue.Reader[graph.Edge]
}

func (a *fakeAttachment) NotifyLive() { a.mu.Lock(); a.lives++; a.mu.Unlock() }
func (a *fakeAttachment) Close()      { a.mu.Lock(); a.closed = true; a.sub.Close(); a.mu.Unlock() }
func (a *fakeAttachment) ReportFloor(f uint64) {
	a.mu.Lock()
	a.floors = append(a.floors, f)
	a.mu.Unlock()
}

func newFakeLink(stream []graph.Edge) *fakeLink {
	l := &fakeLink{feed: queue.NewTopicWithLog[graph.Edge](queue.Options{Buffer: 4096}, nil)}
	for _, e := range stream {
		l.feed.Publish(e, 0)
	}
	return l
}

func (l *fakeLink) LogMeta() (id, head, start uint64) { return 7, 0, 0 }

func (l *fakeLink) ReplicaAttached(pid, r, gen int, floor, resume uint64, reads broker.Replica) (transport.Attachment, transport.Stream, error) {
	sub, err := l.feed.NewReader(0)
	if err != nil {
		return nil, nil, err
	}
	l.att.mu.Lock()
	l.att.sub = sub
	l.att.mu.Unlock()
	return &l.att, sub, nil
}

func (l *fakeLink) offer(msg transport.CandMsg) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.offers = append(l.offers, msg)
	if l.offerFn != nil {
		return l.offerFn(len(l.offers))
	}
	return nil
}

func (l *fakeLink) acked() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acks++
	return l.ackedFn == nil || l.ackedFn(l.acks)
}

func (l *fakeLink) closeFeed()   { l.feed.Close() }
func (l *fakeLink) close() error { return nil }

// hostOverFake builds a one-replica host (slot 0/0 of a one-partition
// deployment) over link, with the given tuning, and returns it with its
// replica's checkpoint directory.
func hostOverFake(t *testing.T, link hubLink, tune func(*Config)) (*replicaHost, string) {
	t.Helper()
	cfg := recoveryConfig(t, ringStatic(20))
	cfg.Partitions, cfg.Replicas = 1, 1
	cfg.CheckpointInterval = 20 * time.Second // stream time
	if tune != nil {
		tune(&cfg)
	}
	sh := newShared(cfg)
	id, _, _ := link.LogMeta()
	sh.adoptLog(id)
	h, err := newReplicaHost(sh, link, [][2]int{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return h, h.reps[0].dir
}

// composedChain composes dir's durable chain and returns the encoded state
// and the chain's final offset.
func composedChain(t *testing.T, h *replicaHost, dir string) ([]byte, uint64) {
	t.Helper()
	man, err := loadManifest(manifestPath(dir), h.runID)
	if err != nil {
		t.Fatal(err)
	}
	base, used, offset := composeChain(dir, man.segs, nil)
	if used != len(man.segs) || used == 0 {
		t.Fatalf("chain composes %d of %d segments", used, len(man.segs))
	}
	return base, offset
}

// TestReplicaHostAckGate drives the skip arm of cutCheckpoint, which only a
// link that withholds acks reaches: while the gate is closed no segment is
// written and the skip is counted; the next cut, gate open, carries the
// skipped interval's dirt, so the chain composes to exactly what an ungated
// host's does.
func TestReplicaHostAckGate(t *testing.T) {
	// 3s of stream time per two-edge step and a 20s interval: exactly one
	// cut falls due within the first ten steps.
	stream := motifWorkload(61, 20, 60)
	const half = 20

	gated := newFakeLink(stream[:half])
	gated.ackedFn = func(n int) bool { return n != 1 }
	h, dir := hostOverFake(t, gated, nil)
	h.start()
	// The first interval's cut meets the closed gate.
	deadline := time.Now().Add(10 * time.Second)
	for h.ckptErrors.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no cut was ever skipped")
		}
		time.Sleep(time.Millisecond)
	}
	if n := h.checkpoints.Value(); n != 0 {
		t.Fatalf("%d checkpoints written under a closed gate", n)
	}
	if man, err := loadManifest(manifestPath(dir), h.runID); err != nil || len(man.segs) != 0 {
		t.Fatalf("chain under a closed gate: %v, %d segments", err, len(man.segs))
	}
	for _, e := range stream[half:] {
		gated.feed.Publish(e, 0)
	}
	h.stop(true)
	if n := h.ckptErrors.Value(); n != 1 {
		t.Fatalf("cluster.checkpoint_errors = %d, want 1 (the one skipped cut)", n)
	}
	if h.checkpoints.Value() == 0 {
		t.Fatal("vacuous: no cut after the gate opened")
	}

	oracle := newFakeLink(stream)
	o, odir := hostOverFake(t, oracle, nil)
	o.start()
	o.stop(true)
	if n := o.ckptErrors.Value(); n != 0 {
		t.Fatalf("oracle counted %d checkpoint errors", n)
	}

	got, gotOff := composedChain(t, h, dir)
	want, wantOff := composedChain(t, o, odir)
	if gotOff != uint64(len(stream)) || wantOff != gotOff {
		t.Fatalf("chains end at %d (gated) and %d (oracle), want %d", gotOff, wantOff, len(stream))
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gated chain composes to different state than the ungated oracle's")
	}
	if gated.att.lives != 1 || len(gated.att.floors) == 0 {
		t.Fatalf("attachment saw %d live reports and %d floor reports", gated.att.lives, len(gated.att.floors))
	}
}

// TestReplicaHostOfferFailure pins the other defensive arm: an offer that
// fails mid-batch ends the consumer on the spot — nothing after the failed
// envelope is offered, and no cut covers it.
func TestReplicaHostOfferFailure(t *testing.T) {
	stream := motifWorkload(62, 20, 60)
	link := newFakeLink(stream)
	const failAt = 9
	link.offerFn = func(n int) error {
		if n == failAt {
			return errors.New("candidate path closed")
		}
		return nil
	}
	// Everything is buffered before start, so batches fill to the bound; a
	// cut is due every other step, so the failed batch had one coming.
	h, dir := hostOverFake(t, link, func(cfg *Config) {
		cfg.ApplyBatch = 16
		cfg.CheckpointInterval = 5 * time.Second
	})
	h.start()
	select {
	case <-h.reps[0].stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("consumer kept running past a failed offer")
	}
	h.stop(false)

	if len(link.offers) != failAt {
		t.Fatalf("%d offers made, want the consumer to stop at offer %d", len(link.offers), failAt)
	}
	failed := link.offers[failAt-1].Offset
	man, err := loadManifest(manifestPath(dir), h.runID)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.segs) == 0 {
		t.Fatal("vacuous: no cut before the failed offer")
	}
	for _, seg := range man.segs {
		if seg.offset > failed {
			t.Fatalf("segment cut at %d covers offset %d, whose candidates were never handed over", seg.offset, failed)
		}
	}
}

// TestCutPauseTimesTheAckGate: the checkpoint cut's apply-loop pause starts
// before the ack gate, so a gate that waits for the delivery loop shows in
// cluster.checkpoint_cut_pause.
func TestCutPauseTimesTheAckGate(t *testing.T) {
	const gateWait = 50 * time.Millisecond
	link := newFakeLink(motifWorkload(63, 20, 60))
	link.ackedFn = func(int) bool {
		time.Sleep(gateWait)
		return true
	}
	h, _ := hostOverFake(t, link, nil)
	h.start()
	h.stop(false)
	if h.checkpoints.Value() == 0 {
		t.Fatal("vacuous: no cut was taken")
	}
	if snap := h.cutPause.Snapshot(); snap.Max < gateWait {
		t.Fatalf("longest cut pause %v, want at least the gate's %v", snap.Max, gateWait)
	}
}
