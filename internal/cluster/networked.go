package cluster

// Networked deployment tier: the same Cluster type can run as one of two
// out-of-process roles connected by internal/transport instead of
// in-process function calls.
//
//   - Hub (Config.Listen): owns the durable firehose WAL, the delivery
//     pipeline, the placement table, and the broker read tier. It runs no
//     replica consumers; every replica slot is remote, represented by a
//     dial-based broker member (transport.RemoteReplica) that a worker
//     process animates by attaching over TCP.
//   - Worker (Config.Join): owns replica detection state for an explicit
//     set of slots (Config.OwnedReplicas). Its firehose is a TCP feed
//     client against the hub's log; its candidates flow back over a
//     sequenced, cumulative-ack stream; its durable checkpoint chains
//     live in the shared CheckpointDir exactly where an in-process
//     replica's would.
//
// Topology is driven by the durable placement table: both roles load the
// same table from the shared CheckpointDir (gated by the hub log's
// identity), so generations and decommission tombstones agree, and a
// worker's chain directory is placement.Dir of its slot — the hub can
// audit fingerprints and scan mirror floors over the shared filesystem
// without owning the partitions.
//
// Exactly-once across the sockets needs no new machinery: envelope
// redelivery after a reconnect is dropped by the worker's next-offset
// filter, and re-sent candidate batches are collapsed by the delivery
// tier's per-group monotonic offset filter — the same filter that absorbs
// replica replays in process. The one genuinely new invariant is the
// checkpoint ack gate: a worker counts every candidate message before
// publishing it locally and refuses to cut a checkpoint until the hub has
// acked everything counted, so a durable cut can never cover an offset
// whose candidates existed only in a process that then died.

import (
	"errors"
	"fmt"
	"time"

	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/queue"
	"motifstream/internal/transport"
)

// ErrNotLocal is returned by the replica lifecycle and elasticity calls
// in networked mode: replicas live in worker processes, so kills and
// restores are process starts and stops, not API calls on the hub.
var ErrNotLocal = errors.New("cluster: replica lifecycle is process-level in networked mode")

// edgeFeed is the cluster's view of the firehose: satisfied by the
// in-process queue.Topic and, on a worker, by transport.FeedClient.
type edgeFeed interface {
	Publish(e graph.Edge, carried time.Duration) error
	Subscribe() <-chan queue.Envelope[graph.Edge]
	SubscribeFrom(offset uint64) (<-chan queue.Envelope[graph.Edge], error)
	Unsubscribe(ch <-chan queue.Envelope[graph.Edge])
	Close()
	Published() uint64
	LogStart() uint64
	TruncateBelow(offset uint64) int
}

// hubState is the hub role's transport wiring.
type hubState struct {
	server       *transport.Server
	remotes      map[[2]int]*transport.RemoteReplica
	drainTimeout time.Duration
}

// workerState is the worker role's transport wiring.
type workerState struct {
	feed         *transport.FeedClient
	fw           *transport.CandForwarder
	rs           *transport.ReplicaServer
	owned        map[[2]int]bool
	drainTimeout time.Duration
}

// networked reports whether this cluster is a hub or worker process.
func (c *Cluster) networked() bool { return c.hub != nil || c.worker != nil }

// validateNetworked checks the Listen/Join configuration surface.
func validateNetworked(cfg Config) error {
	if cfg.Listen != "" && cfg.Join != "" {
		return fmt.Errorf("cluster: Listen and Join are mutually exclusive roles")
	}
	if cfg.Listen != "" {
		if cfg.LogDir == "" {
			return fmt.Errorf("cluster: Listen (hub mode) requires LogDir — workers restore against the durable log's identity")
		}
		if len(cfg.OwnedReplicas) > 0 {
			return fmt.Errorf("cluster: OwnedReplicas is a worker (Join) option")
		}
	}
	if cfg.Join != "" {
		if cfg.CheckpointDir == "" {
			return fmt.Errorf("cluster: Join (worker mode) requires the shared CheckpointDir")
		}
		if cfg.LogDir != "" {
			return fmt.Errorf("cluster: Join (worker mode) must not set LogDir — the hub owns the log")
		}
		if len(cfg.OwnedReplicas) == 0 {
			return fmt.Errorf("cluster: Join (worker mode) requires OwnedReplicas")
		}
		seen := make(map[[2]int]bool)
		for _, or := range cfg.OwnedReplicas {
			if or[0] < 0 || or[0] >= cfg.Partitions || or[1] < 0 {
				return fmt.Errorf("cluster: owned replica %d/%d out of range", or[0], or[1])
			}
			if seen[or] {
				return fmt.Errorf("cluster: owned replica %d/%d listed twice", or[0], or[1])
			}
			seen[or] = true
		}
	}
	return nil
}

func (cfg *Config) netDrainTimeout() time.Duration {
	if cfg.NetDrainTimeout > 0 {
		return cfg.NetDrainTimeout
	}
	return 30 * time.Second
}

// newWorkerState builds the worker transport stack: the meta handshake
// (which yields the hub log's identity — the worker's runID), the
// candidate forwarder, and the read-RPC listener.
func newWorkerState(cfg Config, reg *metrics.Registry) (*workerState, error) {
	// Dial/hello attempts and the handshake retry window take the
	// transport's defaults (5s and 10s); the read listener binds an
	// ephemeral loopback port, advertised to the hub on attach.
	opts := transport.ClientOptions{Metrics: reg}
	feed, err := transport.DialFeed(cfg.Join, opts)
	if err != nil {
		return nil, err
	}
	rs, err := transport.NewReplicaServer("", reg)
	if err != nil {
		feed.Close()
		return nil, err
	}
	w := &workerState{
		feed:         feed,
		fw:           transport.NewCandForwarder(cfg.Join, feed.LogID(), opts),
		rs:           rs,
		owned:        make(map[[2]int]bool, len(cfg.OwnedReplicas)),
		drainTimeout: cfg.netDrainTimeout(),
	}
	for _, or := range cfg.OwnedReplicas {
		w.owned[or] = true
	}
	return w, nil
}

func (w *workerState) close() {
	if w.fw != nil {
		w.fw.Close()
	}
	if w.feed != nil {
		w.feed.Close()
	}
	if w.rs != nil {
		w.rs.Close()
	}
}

// startHubServer binds the hub listener and wires the backend. Called
// last in New: accepting starts immediately, so the topology must be in
// place first.
func (c *Cluster) startHubServer(cfg Config) error {
	batch := cfg.ApplyBatch
	if batch < 1 {
		batch = 64
	}
	srv, err := transport.NewServer(transport.ServerConfig{
		Listen:   cfg.Listen,
		Backend:  hubBackend{c},
		BatchMax: batch,
		Metrics:  c.reg,
	})
	if err != nil {
		return err
	}
	c.hub.server = srv
	return nil
}

// ListenAddr returns the hub's bound listen address ("" on non-hubs) —
// needed when Listen was ":0".
func (c *Cluster) ListenAddr() string {
	if c.hub == nil || c.hub.server == nil {
		return ""
	}
	return c.hub.server.Addr()
}

// AttachedConnections returns how many worker connections (replica feeds
// plus candidate streams) are attached to this hub right now; 0 on
// non-hubs. Also exported as the transport.attached_connections gauge.
func (c *Cluster) AttachedConnections() int {
	if c.hub == nil || c.hub.server == nil {
		return 0
	}
	return c.hub.server.Connections()
}

// DropConnections severs every attached worker connection without
// closing the listener — a network-blip injection for fault harnesses.
// Workers observe a drop, retry-with-backoff, and resume from their
// sticky floors; redelivered envelopes and candidate batches are
// absorbed by the offset filters. Returns the number of connections
// severed; 0 on non-hubs.
func (c *Cluster) DropConnections() int {
	if c.hub == nil || c.hub.server == nil {
		return 0
	}
	return c.hub.server.DropConnections()
}

// hubBackend adapts the Cluster to the transport server's callback
// surface. All methods run on per-connection handler goroutines.
type hubBackend struct{ c *Cluster }

func (h hubBackend) LogMeta() (uint64, uint64, uint64) {
	return h.c.runID, h.c.firehose.Published(), h.c.firehose.LogStart()
}

func (h hubBackend) SubscribeFrom(offset uint64) (<-chan queue.Envelope[graph.Edge], error) {
	return h.c.firehose.SubscribeFrom(offset)
}

func (h hubBackend) Unsubscribe(ch <-chan queue.Envelope[graph.Edge]) {
	h.c.firehose.Unsubscribe(ch)
}

func (h hubBackend) ReplicaAttached(pid, r, gen int, readAddr string) error {
	c := h.c
	slot, err := c.slot(pid, r)
	if err != nil {
		return err
	}
	c.ctl.Lock()
	defer c.ctl.Unlock()
	if slot.state.Load() == replicaRemoved {
		return fmt.Errorf("cluster: replica %d/%d is decommissioned", pid, r)
	}
	if gen != slot.gen {
		return fmt.Errorf("cluster: replica %d/%d generation %d is stale (placement table says %d)", pid, r, gen, slot.gen)
	}
	if rr := c.hub.remotes[[2]int{pid, r}]; rr != nil && readAddr != "" {
		rr.SetAddr(readAddr)
	}
	if slot.state.Load() == replicaDead {
		// Attached but not yet caught up: same broker-down catch-up state
		// the in-process restore machine uses.
		slot.state.Store(replicaReplaying)
	}
	return nil
}

func (h hubBackend) ReplicaLive(pid, r int) {
	c := h.c
	slot, err := c.slot(pid, r)
	if err != nil {
		return
	}
	c.ctl.Lock()
	defer c.ctl.Unlock()
	switch slot.state.Load() {
	case replicaReplaying, replicaDead:
		slot.state.Store(replicaLive)
		c.broker.MarkUp(pid, r)
		close(slot.live)
	}
}

func (h hubBackend) ReplicaFloor(pid, r int, floor uint64) {
	c := h.c
	slot, err := c.slot(pid, r)
	if err != nil {
		return
	}
	for {
		cur := slot.floor.Load()
		if floor <= cur || slot.floor.CompareAndSwap(cur, floor) {
			break
		}
	}
	c.maybeTruncateLog()
}

func (h hubBackend) ReplicaDetached(pid, r int) {
	c := h.c
	slot, err := c.slot(pid, r)
	if err != nil {
		return
	}
	c.ctl.Lock()
	defer c.ctl.Unlock()
	switch st := slot.state.Load(); st {
	case replicaLive, replicaReplaying:
		slot.state.Store(replicaDead)
		c.broker.MarkDown(pid, r)
		if st == replicaLive {
			// Fresh, open live channel for the next attach cycle.
			slot.live = make(chan struct{})
		}
	}
}

func (h hubBackend) DeliverCandidates(msgs []transport.CandMsg) error {
	for _, m := range msgs {
		cm := candidateMsg{pid: m.Pid, offset: m.Offset, pubNS: m.PubNS, cands: m.Cands}
		if err := h.c.candidates.Publish(cm, m.Delay); err != nil {
			return err
		}
	}
	return nil
}

// markLive flips a slot's read availability on the replaying→live
// transition: in-process that is a broker MarkUp; on a worker it is a
// live report to the hub (re-sent automatically after reconnects).
func (c *Cluster) markLive(slot *replicaSlot) {
	if c.worker != nil {
		slot.feed.NotifyLive()
		return
	}
	c.broker.MarkUp(slot.pid, slot.idx)
}

// wireCand converts one local candidate envelope to its wire twin.
func wireCand(env queue.Envelope[candidateMsg]) transport.CandMsg {
	return transport.CandMsg{
		Pid:    env.Msg.pid,
		Offset: env.Msg.offset,
		PubNS:  env.Msg.pubNS,
		Delay:  env.VirtualDelay,
		Cands:  env.Msg.cands,
	}
}

// runForwarder is the worker-side replacement for runDelivery: it drains
// the local candidates topic, coalesces immediately-available messages
// into batches, and ships them through the sequenced/acked forwarder.
// On a clean shutdown (topic closed) it flushes and FINs so the hub's
// candidate drain completes; if the forwarder was aborted it keeps
// draining the topic so blocked publishers can exit.
func (c *Cluster) runForwarder(sub <-chan queue.Envelope[candidateMsg]) {
	defer c.deliverWG.Done()
	fw := c.worker.fw
	max := c.cfg.ApplyBatch
	if max < 16 {
		max = 16
	}
	batch := make([]transport.CandMsg, 0, max)
	sending := true
	closed := false
	for !closed {
		env, ok := <-sub
		if !ok {
			break
		}
		batch = append(batch[:0], wireCand(env))
		for len(batch) < cap(batch) {
			select {
			case env2, ok2 := <-sub:
				if !ok2 {
					closed = true
				} else {
					batch = append(batch, wireCand(env2))
					continue
				}
			default:
			}
			break
		}
		if sending && fw.Send(batch) != nil {
			sending = false
		}
	}
	if sending && !fw.Finish(c.worker.drainTimeout) {
		c.ckptErrors.Inc()
	}
}

// Wait blocks until the hub ends the stream (EOS on every feed), then
// runs the full durable stop: final checkpoint cuts gated on candidate
// acks, forwarder flush + FIN, listener teardown. This is a worker
// process's main loop — start, Wait, exit.
func (c *Cluster) Wait() error {
	if c.worker == nil {
		return fmt.Errorf("cluster: Wait is the worker-mode main loop")
	}
	c.wg.Wait()
	c.stop(true)
	return nil
}

// Abort tears a worker down as a crash would, at the durable-state level:
// connections drop (no FIN, no flush), consumers stop, NO final
// checkpoint cut. Pending already-gated cuts still drain to disk — like a
// kernel flushing a dying process's page cache. The crash-matrix harness
// uses this where the OS-process tests use SIGKILL.
func (c *Cluster) Abort() {
	if c.worker == nil {
		return
	}
	c.stopOnce.Do(func() {
		c.worker.fw.Abort()
		c.worker.feed.Close()
		c.wg.Wait()
		c.ctl.Lock()
		for _, group := range c.slots {
			for _, slot := range group {
				stopWriterLocked(slot)
			}
		}
		c.ctl.Unlock()
		c.candidates.Close()
		c.deliverWG.Wait()
		c.worker.rs.Close()
	})
}
