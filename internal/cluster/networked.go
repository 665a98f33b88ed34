package cluster

// The TCP transport of the replica-host ↔ hub contract: tcpLink is the
// hubLink a worker process (Config.Join) reaches the hub through, and
// hubListener is how a hub (Config.Listen) exposes its handler set to those
// workers. docs/OPERATIONS.md, "Multi-process deployment", has the roles,
// the topology, the contract and the reconnect semantics.

import (
	"errors"
	"fmt"
	"time"

	"motifstream/internal/broker"
	"motifstream/internal/graph"
	"motifstream/internal/queue"
	"motifstream/internal/transport"
)

// ErrNotLocal is returned by calls a process's role cannot serve: replica
// lifecycle and elasticity in networked mode (there, kills and restores are
// process starts and stops), and ingest, reads and slot states on a worker.
var ErrNotLocal = errors.New("cluster: replica lifecycle is process-level in networked mode")

// networked reports whether this cluster is a hub or worker process.
func (c *Cluster) networked() bool { return c.cfg.Listen != "" || c.cfg.Join != "" }

// validateNetworked checks the Listen/Join configuration surface.
func validateNetworked(cfg Config) error {
	if cfg.Listen != "" && cfg.Join != "" {
		return fmt.Errorf("cluster: Listen and Join are mutually exclusive roles")
	}
	if cfg.Listen != "" {
		if cfg.CheckpointDir == "" {
			return fmt.Errorf("cluster: Listen (hub mode) requires CheckpointDir — workers restore against the durable log's identity")
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

// tcpLink joins a worker's replica host to the hub over internal/transport,
// on connections the worker dials: one feed connection per attached slot,
// which also carries the broker's reads of the slot, and one sequenced,
// cumulatively acked candidate stream (the forwarder, which is the worker's
// whole candidate queue). Exactly-once across the sockets needs one law of
// its own, the checkpoint ack gate (offer, acked): envelope redelivery after
// a reconnect is dropped by the feed's next-offset filter, re-sent candidate
// frames by the delivery tier's per-group offset filter.
type tcpLink struct {
	*shared
	feed *transport.FeedClient
	fw   *transport.CandForwarder
}

// dialHub builds the worker's transport stack — the meta handshake (with
// retry, so workers can start first), which yields the hub log's identity,
// adopted as this process's runID, and the candidate forwarder. Dial/hello
// attempts and the retry window take the transport's defaults (5s and 10s).
func dialHub(sh *shared) (*tcpLink, error) {
	opts := transport.ClientOptions{Metrics: sh.reg}
	feed, err := transport.DialFeed(sh.cfg.Join, opts)
	if err != nil {
		return nil, err
	}
	logID, _, _ := feed.LogMeta()
	sh.adoptLog(logID)
	return &tcpLink{
		shared: sh,
		feed:   feed,
		fw:     transport.NewCandForwarder(sh.cfg.Join, logID, opts),
	}, nil
}

func (l *tcpLink) logMeta() (id, head, start uint64) { return l.feed.LogMeta() }

// attach opens the slot's feed connection, which also carries its live and
// floor reports, re-announced after every reconnect, and serves the hub's
// reads of the slot from reads.
func (l *tcpLink) attach(pid, r, gen int, floor, resume uint64, reads broker.Replica) (transport.Attachment, <-chan queue.Envelope[graph.Edge], error) {
	sub, err := l.feed.SubscribeReplica(pid, r, gen, floor, resume, reads)
	if err != nil {
		return nil, nil, err
	}
	return sub, sub.C(), nil
}

// offer hands the message to the forwarder, which counts it against the
// checkpoint ack gate from this call on.
func (l *tcpLink) offer(msg transport.CandMsg) error { return l.fw.Offer(msg) }

// acked waits for the hub to ack every candidate message offered so far.
func (l *tcpLink) acked() bool { return l.fw.WaitDrained(l.cfg.netDrainTimeout()) }

func (l *tcpLink) closeFeed() { l.feed.Close() }

// close flushes the candidate stream — everything offered acked, then the FIN
// exchange the hub's candidate drain waits for — and tears the sockets down.
func (l *tcpLink) close() {
	if !l.fw.Finish(l.cfg.netDrainTimeout()) {
		l.ckptErrors.Inc()
	}
	l.fw.Close()
	l.feed.Close()
}

// hubListener is a hub's server side of the TCP transport: the listener
// workers dial, relaying their calls to the hub tier's handler set (it is the
// transport.HubBackend).
type hubListener struct {
	h      *hubTier
	server *transport.Server
}

// listen binds the hub listener. The listener state is installed before the
// server exists, so backend callbacks (accepting starts immediately) never
// observe a half-built hub.
func (h *hubTier) listen() (err error) {
	h.listener = &hubListener{h: h}
	batch := h.cfg.ApplyBatch
	if batch < 1 {
		batch = 64
	}
	h.listener.server, err = transport.NewServer(transport.ServerConfig{
		Listen:   h.cfg.Listen,
		Backend:  h.listener,
		BatchMax: batch,
		Metrics:  h.reg,
	})
	return err
}

func (l *hubListener) LogMeta() (uint64, uint64, uint64) { return l.h.logMeta() }

// ReplicaAttached attaches like any replica host; reads, the slot's broker
// member, asks the worker over the feed connection of this attach.
func (l *hubListener) ReplicaAttached(pid, r, gen int, floor, resume uint64, reads broker.Replica) (transport.Attachment, <-chan queue.Envelope[graph.Edge], error) {
	return l.h.attach(pid, r, gen, floor, resume, reads)
}

func (l *hubListener) DeliverCandidates(msgs []transport.CandMsg) error {
	for _, m := range msgs {
		if err := l.h.offer(m); err != nil {
			return err
		}
	}
	return nil
}

// server returns the hub's transport server, nil on a process that is not
// a listening hub.
func (c *Cluster) server() *transport.Server {
	if c.hub == nil || c.hub.listener == nil {
		return nil
	}
	return c.hub.listener.server
}

// ListenAddr returns the hub's bound listen address ("" on non-hubs) —
// needed when Listen was ":0".
func (c *Cluster) ListenAddr() string {
	if s := c.server(); s != nil {
		return s.Addr()
	}
	return ""
}

// DropConnections severs every attached worker connection without
// closing the listener — a network-blip injection for fault harnesses.
// Workers observe a drop, retry-with-backoff, and resume from their
// sticky floors; redelivered envelopes and candidate batches are
// absorbed by the offset filters. Returns the number of connections
// severed; 0 on non-hubs.
func (c *Cluster) DropConnections() int {
	if s := c.server(); s != nil {
		return s.DropConnections()
	}
	return 0
}

// Wait blocks until the hub ends the stream (EOS on every feed), then
// runs the full durable stop: final checkpoint cuts gated on candidate
// acks, forwarder flush + FIN, listener teardown. This is a worker
// process's main loop — start, Wait, exit.
func (c *Cluster) Wait() error {
	if c.cfg.Join == "" {
		return fmt.Errorf("cluster: Wait is the worker-mode main loop")
	}
	c.host.wg.Wait()
	c.stop(true)
	return nil
}

// Abort tears a worker down as a crash would, at the durable-state level:
// connections drop (no FIN, no flush), consumers stop, NO final
// checkpoint cut. Pending already-gated cuts still drain to disk — like a
// kernel flushing a dying process's page cache. The crash-matrix harness
// uses this where the OS-process tests use SIGKILL. No-op on non-workers.
func (c *Cluster) Abort() {
	l, ok := c.host.link.(*tcpLink)
	if !ok {
		return
	}
	c.stopOnce.Do(func() {
		l.fw.Abort()
		c.host.stop(false)
	})
}
