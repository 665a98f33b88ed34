package cluster

import (
	"sync"

	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
	"motifstream/internal/queue"
	"motifstream/internal/transport"
)

// This file is the replica apply loop — the only one. A consumer reads its
// stream at its own offset, taking whatever is available up to the
// Config.ApplyBatch bound, or waits for the stream's wake-up when nothing
// is; it fans candidate generation across a bounded worker pool sharded by
// edge target, then commits the batch in offset order: candidate-log
// commit, candidate publish, sweep, checkpoint clock tick and cut, catch-up
// transition. A bound of one is the degenerate case — one envelope a read,
// detection inline — and is per-envelope apply.
//
// Three invariants make the result independent of how the stream is
// chopped into batches (docs/DURABILITY.md expands on each):
//
//  1. D-locality. Motif programs read D only at the triggering edge's
//     target (motif.Program's locality contract), and the worker sharding
//     sends every envelope of one target to the same worker in offset order
//     — so each detection sees exactly the D prefix the stream defines.
//  2. Sweeps and cuts end batches. D sweeps and checkpoint cuts mutate or
//     capture state across ALL targets, so the assembler ends a batch at
//     the first envelope whose timestamp makes either due (probed
//     read-only on copies of the clocks); the commit stage then performs
//     them at that envelope, after all of the batch's publishes — publish
//     before cut, at a stream position fixed by timestamps alone.
//  3. One fate per envelope. One load gates both an envelope's candidate
//     offer and its checkpoint cut (see applyBatch).

// ckptClock is a replica's checkpoint stream clock with a bounded forward
// jump. The naive clock (`lastTS = env.TS` on every cut) lets one
// future-dated event from a clock-skewed producer push the clock so far
// ahead that cuts are suppressed until stream time catches up — an
// unbounded widening of the suppression-loss window. tick instead clamps
// each advance to two checkpoint intervals past the newer of the clock and
// the previous envelope's timestamp: a genuine quiet gap still cuts
// immediately and re-anchors on the next event, while a lone outlier can
// defer the following cut by at most ~three intervals of stream time.
type ckptClock struct {
	// lastTS is the stream time the newest cut is accounted to; zero means
	// unseeded (first envelope after Start or a restore seeds it so a full
	// interval elapses before the first cut).
	lastTS int64
	// prevTS is the previous envelope's timestamp — the clamp anchor that
	// keeps one outlier from poisoning later advances.
	prevTS int64
}

// tick advances the clock over one envelope timestamp and reports whether
// a checkpoint cut is due at this envelope. everyMS must be > 0. The batch
// assembler calls tick on a copy of the slot's clock to probe boundaries
// without committing; the commit stage calls it on the slot's clock.
func (k *ckptClock) tick(ts, everyMS int64) bool {
	if k.lastTS == 0 {
		k.lastTS = ts
		k.prevTS = ts
		return false
	}
	cut := ts-k.lastTS >= everyMS
	if cut {
		next := k.lastTS
		if k.prevTS > next {
			next = k.prevTS
		}
		next += 2 * everyMS
		if ts < next {
			next = ts
		}
		k.lastTS = next
	}
	k.prevTS = ts
	return cut
}

// replicaBatch holds one consumer's reusable batch buffers and its resident
// detect workers; everything is sized once and recycled across batches, and
// the chunks the programs' candidates fill come back to the partition's
// engine once their leases are released, so a warmed-up consumer allocates
// nothing per batch.
type replicaBatch struct {
	max     int
	workers int
	// read holds what the stream's reads returned and no batch has applied
	// yet; envs, the batch, is its prefix, and read[len(envs):] what lay
	// past the batch's boundary, which opens the next batch.
	read []queue.Envelope[graph.Edge]
	envs []queue.Envelope[graph.Edge]
	// Per-worker shards: the edges routed to shard w and each edge's
	// position in envs, so results scatter back into offset order. outs[w]
	// and outLeases[w] hold a result only between a shard's detection and
	// the scatter.
	edges     [][]graph.Edge
	pos       [][]int
	outs      [][]candList
	outLeases [][]motif.Lease
	// cands[i] is envelope i's detection result, and leases[i] its lease, in
	// batch order, until the commit hands them off.
	cands  []candList
	leases []motif.Lease
	// shards feeds the resident workers the index of a shard to detect.
	// pending counts the shards of the current batch still with a worker,
	// exited the workers still running.
	shards  chan int
	pending sync.WaitGroup
	exited  sync.WaitGroup
}

// candList aliases the candidate slice type to keep the scatter buffers
// readable.
type candList = []motif.Candidate

func newReplicaBatch(max, workers int) *replicaBatch {
	if max < 1 {
		max = 1
	}
	// A batch never fans wider than it is long.
	workers = min(workers, max)
	if workers < 1 {
		workers = 1
	}
	b := &replicaBatch{max: max, workers: workers}
	b.read = make([]queue.Envelope[graph.Edge], 0, max)
	b.envs = b.read
	b.cands = make([]candList, max)
	b.leases = make([]motif.Lease, max)
	b.edges = make([][]graph.Edge, workers)
	b.pos = make([][]int, workers)
	b.outs = make([][]candList, workers)
	b.outLeases = make([][]motif.Lease, workers)
	for w := range b.edges {
		b.edges[w] = make([]graph.Edge, 0, max)
		b.pos[w] = make([]int, 0, max)
		b.outs[w] = make([]candList, max)
		b.outLeases[w] = make([]motif.Lease, max)
	}
	return b
}

// startWorkers starts the batch's resident detect workers — one fewer than
// its shards, the consumer detecting shard 0 itself — which run DetectLeased
// on p over each shard they are sent until stopWorkers. They are started
// once per consumer, not per batch: a batch costs them a channel send and a
// WaitGroup count, no goroutine, closure or allocation.
func (b *replicaBatch) startWorkers(p *partition.Partition) {
	b.shards = make(chan int)
	for w := 1; w < b.workers; w++ {
		b.exited.Add(1)
		go func() {
			defer b.exited.Done()
			for shard := range b.shards {
				b.detect(p, shard)
				b.pending.Done()
			}
		}()
	}
}

// detect runs detection over shard's edges into its result buffers.
func (b *replicaBatch) detect(p *partition.Partition, shard int) {
	n := len(b.edges[shard])
	p.DetectLeased(b.edges[shard], b.outs[shard][:n], b.outLeases[shard][:n])
}

// stopWorkers ends the resident workers and returns once they have exited.
// No batch may be in flight.
func (b *replicaBatch) stopWorkers() {
	close(b.shards)
	b.exited.Wait()
}

// consumeBatched is the replica consumer loop: take a batch from the
// stream, apply it, repeat, waiting for the stream's wake-up when there is
// nothing to read, until the stream ends — the log closed, or a teardown
// closed the attachment and with it the stream. Its detect workers live
// exactly as long as it does, and so does the engine's detection memory:
// the chunks it recycles are dropped when the loop exits.
func (h *replicaHost) consumeBatched(rep *replica) {
	b := newReplicaBatch(h.cfg.ApplyBatch, h.cfg.ApplyWorkers)
	b.startWorkers(rep.p)
	defer rep.p.ReleaseScratch()
	defer b.stopWorkers()
	for {
		if err := h.assembleBatch(rep, b); err != nil {
			return
		}
		if len(b.envs) == 0 {
			<-rep.sub.Ready()
		} else if !h.applyBatch(rep, b) {
			return
		}
	}
}

// assembleBatch tops what the last batch left unapplied up to the batch
// bound with one read that does not block, and takes its prefix as the
// batch, ending early at the first envelope where a D sweep or a checkpoint
// cut is due. The probes are read-only: the sweep clock cannot advance
// during assembly (only this consumer sweeps this engine) and the
// checkpoint clock is simulated on a copy. The stream's error (its end) is
// returned only once nothing read is left, and leaves the batch empty.
func (h *replicaHost) assembleBatch(rep *replica, b *replicaBatch) error {
	held := copy(b.read[:b.max], b.read[len(b.envs):])
	n, err := rep.sub.Read(b.read[held:b.max])
	b.read = b.read[:held+n]
	b.envs = b.read[:0]
	if len(b.read) == 0 {
		return err
	}
	p := rep.p
	sim := rep.clock
	k := 1
	for k < len(b.read) && !h.batchBoundary(p, &sim, b.read[k-1].Msg.TS) {
		k++
	}
	b.envs = b.read[:k]
	return nil
}

// batchBoundary reports whether an envelope with timestamp ts must be the
// last of its batch: a D sweep or a checkpoint cut is due at it, and both
// act across all edge targets, so no later envelope may be detected before
// they run.
func (h *replicaHost) batchBoundary(p *partition.Partition, sim *ckptClock, ts int64) bool {
	if p.SweepDue(ts) {
		return true
	}
	return h.ckptEveryMS > 0 && sim.tick(ts, h.ckptEveryMS)
}

// applyBatch runs detection for the whole batch across the worker pool,
// then commits in offset order. Every alive replica offers its candidates;
// the delivery consumer's per-group offset filter collapses the redundancy
// to exactly one batch per event. Returns false only when an offer fails
// (the candidate path shut down), abandoning the batch with no cut over it.
func (h *replicaHost) applyBatch(rep *replica, b *replicaBatch) bool {
	p := rep.p
	n := len(b.envs)
	cands := b.cands[:n]

	// Shard by edge target: same target, same shard, offset order within
	// the shard — the arrangement under which concurrent detection sees
	// exactly the stream-order D prefix per target. With one shard every
	// edge lands in shard 0, in offset order, and the consumer detects the
	// whole batch itself.
	w := min(b.workers, n)
	for i := 0; i < w; i++ {
		b.edges[i] = b.edges[i][:0]
		b.pos[i] = b.pos[i][:0]
	}
	for i, env := range b.envs {
		h := int((uint64(env.Msg.Dst) * 0x9e3779b97f4a7c15 >> 32) % uint64(w))
		b.edges[h] = append(b.edges[h], env.Msg)
		b.pos[h] = append(b.pos[h], i)
	}
	for i := 1; i < w; i++ {
		if len(b.edges[i]) > 0 {
			b.pending.Add(1)
			b.shards <- i
		}
	}
	// Shard 0 runs inline on the consumer goroutine.
	b.detect(p, 0)
	b.pending.Wait()
	// Move, not copy: a reference left in outs would outlive the batch and
	// pin the chunk its candidates were issued from.
	for i := 0; i < w; i++ {
		for j, at := range b.pos[i] {
			cands[at], b.outs[i][j] = b.outs[i][j], nil
			b.leases[at], b.outLeases[i][j] = b.outLeases[i][j], motif.Lease{}
		}
	}

	h.applyBatches.Inc()

	// Ordered commit, one envelope at a time in offset order.
	for i, env := range b.envs {
		// The slice and its lease are handed off: drop the batch's references.
		ev, lease := cands[i], b.leases[i]
		cands[i], b.leases[i] = nil, motif.Lease{}
		p.Commit(ev)

		// One load gates BOTH this envelope's offer and its cut. A teardown
		// marks the replica dead before it ends the stream, but the
		// consumer may be mid-batch, or hold what it read past the batch's
		// boundary, when it does — a "zombie" span.
		// Suppressing only the offer while still cutting would let a durable
		// cut claim offsets whose candidates were never handed to the
		// delivery tier; the restored replica would resume past the
		// suppressed offset, and its first accepted emission would jump the
		// group's high-water filter over the lost batch.
		dead := rep.dead.Load()

		// Candidates are offered before any checkpoint cut covering this
		// offset: a cut at Offset+1 must never claim durability for an
		// event whose candidates were not yet handed to the delivery tier,
		// or a restore from that cut would skip re-emitting them.
		// An offered message is the delivery tier's to release; what is not
		// sent is released here.
		switch {
		case len(ev) == 0:
		case dead:
			lease.Release()
		case h.link.offer(transport.CandMsg{Pid: rep.pid, Offset: env.Offset, PubNS: env.PubUnixNS, Cands: ev, Lease: lease}) != nil:
			lease.Release()
			for j := i + 1; j < n; j++ {
				b.leases[j].Release()
				cands[j], b.leases[j] = nil, motif.Lease{}
			}
			return false
		}
		rep.applied.Store(env.Offset + 1)

		// Sweep before any cut at this envelope, so the cut captures the
		// pruned state. By construction only the batch-final envelope can
		// be due; for the rest this is one atomic load.
		p.MaybeSweep(env.Msg.TS)

		if h.ckptEveryMS > 0 && !dead {
			if rep.clock.tick(env.Msg.TS, h.ckptEveryMS) {
				h.cutCheckpoint(rep, env.Offset+1)
			}
		}

		if rep.replaying && !dead && env.Offset+1 >= rep.target {
			// Caught up with the head observed at launch. A teardown racing
			// this report has already ended the attachment, so the hub
			// ignores it rather than resurrect a reset replica.
			rep.replaying = false
			rep.att.NotifyLive()
		}
	}
	return true
}
