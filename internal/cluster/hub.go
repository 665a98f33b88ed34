package cluster

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"motifstream/internal/broker"
	"motifstream/internal/delivery"
	"motifstream/internal/graph"
	"motifstream/internal/placement"
	"motifstream/internal/queue"
	"motifstream/internal/transport"
)

// Slot states — the catch-up machine every replica goes through, whichever
// process runs it. A slot is born dead; an attach moves it to replaying, the
// attachment's live report to live (the one state that serves reads), its
// detach back to dead. DecommissionReplica moves any state to removed — a
// terminal tombstone that keeps the group's indices stable.
const (
	replicaLive int32 = iota
	replicaReplaying
	replicaDead
	replicaRemoved
)

// replicaSlot is the hub tier's record of one placement: where its chain
// lives, where it stands in the catch-up machine, and which attachment — a
// replica host's claim on it, from this process or a socket — owns it. It is
// the broker's member for its index: the slot alone says whether it serves.
type replicaSlot struct {
	pid, idx int
	// gen is the placement generation (bumped by ReprovisionReplica) and
	// dir the generation's checkpoint directory ("" without recovery).
	// Both are rewritten only under ctl+topoMu; read them under either.
	gen int
	dir string

	state atomic.Int32
	// failed is FailReplica's flag: the replica keeps its state and keeps
	// consuming but serves no read. RecoverReplica and the next go-live
	// clear it.
	failed atomic.Bool
	// floor is the offset of the replica's oldest durable restore point
	// (its base segment's cut offset; zero until the first compaction).
	// The firehose log is only ever truncated below the minimum floor
	// across replicas.
	floor atomic.Uint64
	// owesFin: the slot attached during this run and no candidate FIN has
	// named it at its generation since. Every attach sets it; a listening
	// hub's shutdown drain waits until no slot owes one.
	owesFin atomic.Bool

	// att is the slot's newest attachment (nil while nobody is attached),
	// written under hubTier.slotMu and loaded without it by Serving; live
	// closes when the attachment reports live, guarded by slotMu.
	att  atomic.Pointer[attachment]
	live chan struct{}
}

// Serving implements broker.Member: the attachment's replica, while the
// slot is live and not failed. A transition stores the state before the
// attachment (attach) or the attachment before the state (Close), and a
// live state belongs to the attachment loaded on both sides of it, so a
// read never reaches an attachment that was replaced or a replica still
// replaying.
func (s *replicaSlot) Serving() (broker.Replica, bool) {
	a := s.att.Load()
	if a == nil || s.state.Load() != replicaLive || s.failed.Load() || s.att.Load() != a {
		return nil, false
	}
	return a.reads, true
}

// hubTier is everything that exists once per deployment: the firehose log,
// the candidate queue and delivery pipeline, the broker, and the slot
// records with their state machine. Replica hosts reach it only through its
// handler set: it is the in-process hubLink, and the transport.HubBackend
// that socket-attached workers reach through its server (networked.go).
type hubTier struct {
	*shared

	firehose *queue.Topic[graph.Edge]
	// wal is the firehose's retained log whenever the cluster checkpoints
	// (Config.LogDir, derived from CheckpointDir by New when empty); nil
	// without recovery. The tier owns it and closes it after the last drain
	// in shutdown.
	wal *queue.WAL[graph.Edge]
	// candidates is the delivery loop's queue: every replica host's offers,
	// in process or relayed from a socket, bounded at queueBuffer.
	candidates chan transport.CandMsg
	broker     *broker.Broker
	slots      [][]*replicaSlot
	present    [][2]int // the placements in service at construction
	// server serves socket-attached workers; nil without Config.Listen.
	server *transport.Server
	// fins is kicked by every candidate FIN, waking the shutdown drain.
	fins chan struct{}

	// initialDelivery seeds runDelivery's per-group high-water offsets on
	// a durable-log restart, so replicas replaying their tail spans do
	// not re-deliver batches the previous run already pushed.
	initialDelivery []uint64
	// sent counts the messages put into candidates, decided those
	// runDelivery has filtered or run through the pipeline: the ack gate
	// (awaitDecided). A sender counts before its send, so whenever decided
	// reaches sent as it stood after a caller's sends, the caller's
	// messages are decided. waiters counts the goroutines parked in the
	// gate; the delivery loop broadcasts decidedCond only while one is.
	sent, decided atomic.Uint64
	waiters       atomic.Int32
	decidedMu     sync.Mutex
	decidedCond   *sync.Cond
	// stateWG tracks in-flight async delivery-state cuts; stateBusy keeps
	// at most one in flight (a busy tick is skipped, the next one captures
	// a strictly newer state). Cuts are only spawned by the delivery
	// goroutine, which waits for the last one before its final exact cut.
	stateWG   sync.WaitGroup
	stateBusy atomic.Bool
	deliverWG sync.WaitGroup

	// truncMu makes maybeTruncateLog's read of the slot floors plus
	// truncate atomic against an attach's floor publication plus subscribe
	// (see ReplicaAttached).
	truncMu sync.Mutex
	// slotMu serializes the slot state machine's transitions.
	slotMu sync.Mutex
	// topoMu guards the topology itself — the per-partition slot slices,
	// which grow on AddReplica, and each slot's dir/gen, which node
	// replacement rewrites. Mutations additionally hold the host's ctl;
	// lock order is ctl → truncMu → slotMu → topoMu (always innermost), so
	// readers on any path can take the read lock without ordering worries.
	topoMu sync.RWMutex
}

// newHubTier opens the firehose log — durable over Config.LogDir, a plain
// topic without recovery — adopts its identity, and builds one slot record
// per placement, each born dead and each the broker's member for its index:
// a replica host's attach brings it to life.
func newHubTier(sh *shared) (h *hubTier, err error) {
	cfg := sh.cfg
	h = &hubTier{shared: sh, fins: make(chan struct{}, 1)}
	h.decidedCond = sync.NewCond(&h.decidedMu)
	var logID uint64 // see shared.runID
	var backend queue.LogBackend[graph.Edge]
	if cfg.LogDir != "" {
		h.wal, err = queue.OpenWAL(queue.WALOptions[graph.Edge]{
			Dir:          cfg.LogDir,
			Marshal:      edgeMarshaler(),
			Unmarshal:    unmarshalEdge,
			SegmentBytes: cfg.LogSegmentBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: durable log: %w", err)
		}
		defer func() {
			if err != nil {
				h.wal.Close()
			}
		}()
		backend, logID = h.wal, h.wal.ID()
	}
	h.firehose = queue.NewTopicWithLog[graph.Edge](queue.Options{Name: "firehose", Buffer: queueBuffer}, backend)
	h.candidates = make(chan transport.CandMsg, queueBuffer)
	sh.adoptLog(logID)

	h.slots = make([][]*replicaSlot, cfg.Partitions)
	groups := make([][]broker.Member, cfg.Partitions)
	for pid := range h.slots {
		for r, pl := range sh.placements(pid) {
			slot := &replicaSlot{pid: pid, idx: r, gen: pl.Gen, live: make(chan struct{})}
			slot.state.Store(replicaDead)
			if pl.Removed {
				slot.state.Store(replicaRemoved)
			} else {
				h.present = append(h.present, [2]int{pid, r})
				if cfg.CheckpointDir != "" {
					slot.dir = placement.Dir(cfg.CheckpointDir, pid, r, pl.Gen)
				}
			}
			h.slots[pid] = append(h.slots[pid], slot)
			groups[pid] = append(groups[pid], slot)
		}
	}
	if h.broker, err = broker.New(sh.part, groups); err != nil {
		return nil, err
	}
	if h.wal != nil {
		h.seedDelivery()
	}
	// The delivery pipeline, seeded above, consumes the candidate queue
	// before anything can offer: ahead of the listener, and of the host whose
	// replicas replay at Start.
	h.deliverWG.Add(1)
	go h.runDelivery()
	if cfg.Listen != "" {
		// Bound last: accepting starts immediately, so the topology must be
		// in place first.
		if err = h.listen(); err != nil {
			close(h.candidates)
			h.deliverWG.Wait()
		}
	}
	return h, err
}

// seedDelivery runs on a durable-log restart. The replicas are about to
// replay their tail spans, and those batches were already pushed by a
// previous run: seed the delivery tier's exactly-once filter AND the
// pipeline's suppression state (dedup LRU + fatigue budgets) from
// delivery.state, which bundles both as one atomic snapshot: a (user, item)
// pair pushed before the shutdown stays suppressed across the restart,
// daily budgets are not silently reset, and the filter can never run ahead
// of the dedup state because they were captured together. A missing,
// foreign, or corrupt delivery.state degrades to a filter seeded from zero
// with a fresh pipeline: every chain lies at or below the decided point
// (acked), so nothing is lost, and what re-pushes is at most each replica's
// span above its last cut — never a failed reopen.
func (h *hubTier) seedDelivery() {
	h.initialDelivery = h.loadDeliveryState()
	// Clamp the seeds to the recovered log head: after a torn-tail crash
	// the log may have lost a suffix whose offsets the delivery filter
	// already covered — those offsets are about to be REUSED by brand-new
	// events, and a seed beyond the head would drop their notifications
	// forever. Clamping down only risks re-delivering the lost span's
	// pushes, the documented duplicate tolerance; never loss (and dedup
	// entries covering the lost span only suppress re-pushes of pairs the
	// previous run demonstrably delivered).
	head := h.firehose.Published()
	for i, off := range h.initialDelivery {
		if off > head {
			h.initialDelivery[i] = head
		}
	}
}

// runDelivery consumes candidate batches and runs the push pipeline.
// nextOffset[g] is group g's exactly-once high-water mark: a batch is
// processed only when its firehose offset has not been covered yet, so
// the replicas' redundant emissions — including a recovering replica's
// replay — produce exactly one delivery attempt per candidate. An accepted
// batch's simulated queue delay is derived here, where it is spent: both
// hops' draws for its offset (hopdelay.go), summed before the pipeline
// truncates the total to milliseconds.
func (h *hubTier) runDelivery() {
	defer h.deliverWG.Done()
	ingest, deliver := newHop(h.cfg.HopDelay, h.cfg.Seed), newHop(h.cfg.HopDelay, h.cfg.Seed+1)
	nextOffset := make([]uint64, h.cfg.Partitions)
	// A durable-log restart seeds the filter from the persisted offsets:
	// every replica is about to replay its tail span, and the previous
	// run already delivered those batches.
	copy(nextOffset, h.initialDelivery)
	persist := h.cfg.CheckpointDir != ""
	batches := 0
	for msg := range h.candidates {
		if msg.Offset < nextOffset[msg.Pid] {
			// Another replica's copy already covered this event.
			msg.Lease.Release()
			h.decide()
			continue
		}
		nextOffset[msg.Pid] = msg.Offset + 1
		// Wall-clock detection latency, measured once per accepted batch:
		// first publish of the triggering event to the moment its candidates
		// reach the delivery tier. Replayed events carry pubNS zero and are
		// excluded — recovery lag is the replay-rate metric's job, not this
		// one's.
		if msg.PubNS > 0 {
			if d := time.Duration(time.Now().UnixNano() - msg.PubNS); d >= 0 {
				h.detectLatency.Observe(d)
			}
		}
		delay := ingest.delay(msg.Offset) + deliver.delay(msg.Offset)
		for _, cand := range msg.Cands {
			decision, note := h.pipeline.Offer(cand, delay)
			if decision != delivery.Delivered {
				continue
			}
			h.delivered.Inc()
			h.e2eLatency.Observe(note.Latency)
			if h.cfg.OnNotify != nil {
				h.cfg.OnNotify(*note)
			}
		}
		// The pipeline keeps nothing of a candidate: a notification's Via
		// is its own copy.
		msg.Lease.Release()
		h.decide()
		// Periodically cut the delivery restart state — the pipeline's
		// suppression state (dedup LRU + fatigue budgets) bundled with the
		// filter offsets captured right now — written asynchronously so
		// the encode and fsync never stall the delivery tier.
		if batches++; persist && batches%deliveryStatePersistEvery == 0 {
			h.cutDeliveryStateAsync(append([]uint64(nil), nextOffset...))
		}
	}
	if persist && batches > 0 {
		// Final exact persist at the drained point: wait out any async
		// state cut, then write the state+offsets snapshot (one atomic
		// file — a restart seeded from it can never run its filter ahead
		// of the dedup state restored with it; docs/DURABILITY.md,
		// "Durable delivery-pipeline state").
		h.stateWG.Wait()
		h.persistDeliveryState(nextOffset)
	}
}

// decide counts one message decided and wakes the gate's waiters, if any.
// A waiter registers before it reads decided, so one that this load misses
// sees the new count.
func (h *hubTier) decide() {
	h.decided.Add(1)
	if h.waiters.Load() > 0 {
		h.decidedMu.Lock()
		h.decidedCond.Broadcast()
		h.decidedMu.Unlock()
	}
}

// awaitDecided blocks until the delivery loop has decided target messages.
func (h *hubTier) awaitDecided(target uint64) {
	if h.decided.Load() >= target {
		return
	}
	h.decidedMu.Lock()
	h.waiters.Add(1)
	for h.decided.Load() < target {
		h.decidedCond.Wait()
	}
	h.waiters.Add(-1)
	h.decidedMu.Unlock()
}

// close ends the tier after its log closed and every in-process consumer
// drained. The topic close ended every worker feed with EOS; a listening hub
// then waits for the FIN every slot that attached during this run owes — a
// worker that was mid-reconnect when the stream closed still comes back,
// replays the tail and flushes — so everything the workers flushed lands in
// the delivery queue before it closes. The wait is bounded by
// NetDrainTimeout; past it the durable close still runs, and close returns
// an error naming every slot that never finished. The server's Close waits
// out every connection handler, so no straggling DeliverCandidates can send
// on the closed queue.
func (h *hubTier) close() error {
	var err error
	if h.server != nil {
		err = h.awaitFins()
		h.server.Close()
	}
	close(h.candidates)
	h.deliverWG.Wait()
	if h.wal != nil {
		// Consumers and replayers have drained; everything appended is
		// fsynced by the close, so the checkpoints written before it never
		// claim offsets the log could lose.
		if err := h.wal.Close(); err != nil {
			h.ckptErrors.Inc()
		}
	}
	return err
}

// awaitFins waits until no slot owes a FIN, for at most NetDrainTimeout.
func (h *hubTier) awaitFins() error {
	timeout := h.cfg.netDrainTimeout()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		var owed []string
		h.topoMu.RLock()
		for _, group := range h.slots {
			for _, s := range group {
				if s.owesFin.Load() {
					owed = append(owed, fmt.Sprintf("%d/%d", s.pid, s.idx))
				}
			}
		}
		h.topoMu.RUnlock()
		if len(owed) == 0 {
			return nil
		}
		select {
		case <-h.fins:
		case <-timer.C:
			return fmt.Errorf("cluster: no FIN within %v from replica slot(s) %s: their workers never finished, and what they had not flushed is not delivered", timeout, strings.Join(owed, ", "))
		}
	}
}

// ReplicaFinished clears slot (pid, r)'s FIN debt when gen is its
// generation, and applies floor as the slot's floor report; a stale
// generation's FIN is ignored.
func (h *hubTier) ReplicaFinished(pid, r, gen int, floor uint64) {
	if slot, err := h.slot(pid, r); err == nil && gen == slot.gen {
		h.slotMu.Lock()
		if floor > slot.floor.Load() {
			slot.floor.Store(floor)
		}
		slot.owesFin.Store(false)
		h.slotMu.Unlock()
		h.maybeTruncateLog()
	}
	select {
	case h.fins <- struct{}{}:
	default:
	}
}

// slot validates indices and returns the slot. The topology read lock
// covers the group slice, which AddReplica grows mid-run.
func (h *hubTier) slot(pid, r int) (*replicaSlot, error) {
	h.topoMu.RLock()
	defer h.topoMu.RUnlock()
	if pid < 0 || pid >= len(h.slots) {
		return nil, fmt.Errorf("cluster: partition %d out of range", pid)
	}
	if r < 0 || r >= len(h.slots[pid]) {
		return nil, fmt.Errorf("cluster: replica %d out of range for partition %d", r, pid)
	}
	return h.slots[pid][r], nil
}

// alive counts partition pid's live-or-replaying slots, excluding the given
// one. The caller holds ctl (so membership is stable for the guard's
// purposes).
func (h *hubTier) alive(pid int, except *replicaSlot) int {
	h.topoMu.RLock()
	defer h.topoMu.RUnlock()
	alive := 0
	for _, s := range h.slots[pid] {
		if s == except {
			continue
		}
		if st := s.state.Load(); st != replicaDead && st != replicaRemoved {
			alive++
		}
	}
	return alive
}

// placed snapshots partition pid's non-removed placement directories under
// the topology lock, for scans that then run outside it.
func (h *hubTier) placed(pid int) []placed {
	h.topoMu.RLock()
	defer h.topoMu.RUnlock()
	var out []placed
	for _, s := range h.slots[pid] {
		if s.state.Load() != replicaRemoved && s.dir != "" {
			out = append(out, placed{idx: s.idx, gen: s.gen, dir: s.dir})
		}
	}
	return out
}

func (h *hubTier) LogMeta() (id, head, start uint64) {
	return h.runID, h.firehose.Published(), h.firehose.LogStart()
}

// attachment is one replica host's claim on a slot: the subscription it
// reads, the replica the broker reaches it through, and the handle its
// reports arrive through. The slot points back at its newest attachment
// only: a superseded one (a half-open connection whose worker already
// reconnected) reports, and at last detaches, to no effect.
type attachment struct {
	h     *hubTier
	slot  *replicaSlot
	sub   <-chan queue.Envelope[graph.Edge]
	reads broker.Replica
}

// ReplicaAttached is a replica host taking ownership of slot (pid, r) at
// generation gen, with its state restored to resume and floor its oldest
// durable restore point; reads is where the broker reaches the replica.
// Publishing the floor and subscribing are one atomic step, under truncMu,
// against maybeTruncateLog's floor-read-plus-truncate: a stale floor from the
// slot's previous incarnation (which restored higher than this one, say,
// whose chain was lost) could otherwise let a concurrent peer compaction
// truncate the log out from under the replay about to start. The slot turns
// replaying — serving no read until the attachment reports live — and owes
// a FIN. On error it is untouched.
func (h *hubTier) ReplicaAttached(pid, r, gen int, floor, resume uint64, reads broker.Replica) (transport.Attachment, <-chan queue.Envelope[graph.Edge], error) {
	slot, err := h.slot(pid, r)
	if err != nil {
		return nil, nil, err
	}
	h.truncMu.Lock()
	defer h.truncMu.Unlock()
	h.slotMu.Lock()
	defer h.slotMu.Unlock()
	if slot.state.Load() == replicaRemoved {
		return nil, nil, fmt.Errorf("cluster: replica %d/%d is decommissioned", pid, r)
	}
	if gen != slot.gen {
		return nil, nil, fmt.Errorf("cluster: replica %d/%d generation %d is stale (placement table says %d)", pid, r, gen, slot.gen)
	}
	a := &attachment{h: h, slot: slot, reads: reads}
	if h.wal == nil {
		// No recovery: the topic retains nothing to replay from.
		a.sub = h.firehose.Subscribe()
	} else if a.sub, err = h.firehose.SubscribeFrom(resume); err != nil {
		// Only reachable when the chain was lost (corrupt base) after the
		// log below it was truncated; surface rather than silently diverge.
		return nil, nil, fmt.Errorf("cluster: replay from %d: %w", resume, err)
	}
	if old := slot.att.Load(); old != nil {
		h.firehose.Unsubscribe(old.sub)
	}
	slot.floor.Store(floor)
	slot.owesFin.Store(true)
	slot.leave(replicaReplaying)
	slot.att.Store(a)
	return a, a.sub, nil
}

// leave moves a slot out of any state into st, re-arming the live channel
// if a previous go-live closed it. The caller holds slotMu.
func (s *replicaSlot) leave(st int32) {
	if s.state.Load() == replicaLive {
		s.live = make(chan struct{})
	}
	s.state.Store(st)
}

// NotifyLive: the replica applied every offset that existed when it
// attached — it is as fresh as any live one, and it serves reads, a
// FailReplica flag from before included.
func (a *attachment) NotifyLive() {
	h, slot := a.h, a.slot
	h.slotMu.Lock()
	defer h.slotMu.Unlock()
	if slot.att.Load() != a || !slot.state.CompareAndSwap(replicaReplaying, replicaLive) {
		return
	}
	slot.failed.Store(false)
	close(slot.live)
}

// ReportFloor: durable progress on the replica's chain — its restore floor,
// and with it possibly the log's truncation horizon.
func (a *attachment) ReportFloor(offset uint64) {
	a.h.slotMu.Lock()
	if a.slot.att.Load() == a && offset > a.slot.floor.Load() {
		a.slot.floor.Store(offset)
	}
	a.h.slotMu.Unlock()
	a.h.maybeTruncateLog()
}

// Close ends the attachment — a kill, a dropped connection, a worker gone.
// Releasing its subscription frees any publisher blocked on its buffer
// (buffered envelopes are lost, as with a dead process); the slot is dead,
// serving no read, until the next attach.
func (a *attachment) Close() {
	h, slot := a.h, a.slot
	h.slotMu.Lock()
	defer h.slotMu.Unlock()
	if slot.att.Load() != a {
		return
	}
	h.firehose.Unsubscribe(a.sub)
	slot.att.Store(nil)
	slot.leave(replicaDead)
}

// offer hands one event's candidates to the delivery tier, whose per-group
// offset filter collapses the replicas' identical offers to one per event.
func (h *hubTier) offer(msg transport.CandMsg) error {
	h.sent.Add(1)
	h.candidates <- msg
	return nil
}

// acked waits, without bound like an offer into a full queue, until the
// delivery loop has decided every message offered before the call.
func (h *hubTier) acked() bool {
	h.awaitDecided(h.sent.Load())
	return true
}

func (h *hubTier) closeFeed() { h.firehose.Close() }

// maybeTruncateLog compacts the retained firehose log below the minimum
// restore floor across all non-removed replicas: every offset below it is
// covered by a durable restore point, so no restore — including
// segment-at-a-time corruption fallback — can ever need to replay it. Each
// floor is what its replica reported: its chain's base offset, lowered to
// the newest base it pushed intact to each peer (replica.floor), so a
// mirror keeps counting through its source's kill. Called on every floor
// report, i.e. after a replica's durable progress.
func (h *hubTier) maybeTruncateLog() {
	h.truncMu.Lock()
	defer h.truncMu.Unlock()
	h.topoMu.RLock()
	floor := ^uint64(0)
	for _, group := range h.slots {
		for _, s := range group {
			// A tombstone never restores; its floor is irrelevant.
			if s.state.Load() != replicaRemoved {
				floor = min(floor, s.floor.Load())
			}
		}
	}
	h.topoMu.RUnlock()
	if floor == 0 || floor == ^uint64(0) {
		return
	}
	if n := h.firehose.TruncateBelow(floor); n > 0 {
		h.truncated.Add(uint64(n))
	}
}
