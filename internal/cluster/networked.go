package cluster

// The TCP transport of the replica-host ↔ hub contract: tcpLink is the
// hubLink a worker process (Config.Join) reaches the hub through, and a hub
// (Config.Listen) serves those workers its own handler set — *hubTier is
// their transport.HubBackend. docs/OPERATIONS.md, "Multi-process
// deployment", has the roles, the topology, the contract and the reconnect
// semantics.

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
	if cfg.Join == "" && len(cfg.OwnedReplicas) > 0 {
		return fmt.Errorf("cluster: OwnedReplicas is a worker (Join) option")
	}
	if cfg.Listen != "" && cfg.CheckpointDir == "" {
		return fmt.Errorf("cluster: Listen (hub mode) requires CheckpointDir — workers restore against the durable log's identity")
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
// whole candidate queue). Exactly-once across the sockets rests on the
// checkpoint ack gate both links share (offer, acked: the hub acks a frame
// once its delivery loop has decided it): envelope redelivery after a
// reconnect is dropped by the feed's next-offset filter, re-sent candidate
// frames by the delivery tier's per-group offset filter.
type tcpLink struct {
	*shared
	feed *transport.FeedClient
	fw   *transport.CandForwarder
	// subs are the slots' feed subscriptions, appended by attach (under the
	// host's ctl): what the candidate FIN names and Wait reports on.
	subs []*transport.FeedSub
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

func (l *tcpLink) LogMeta() (id, head, start uint64) { return l.feed.LogMeta() }

// ReplicaAttached opens the slot's feed connection, which also carries its
// live and floor reports, re-announced after every reconnect, and serves the
// hub's reads of the slot from reads.
func (l *tcpLink) ReplicaAttached(pid, r, gen int, floor, resume uint64, reads broker.Replica) (transport.Attachment, <-chan queue.Envelope[graph.Edge], error) {
	sub, err := l.feed.SubscribeReplica(pid, r, gen, floor, resume, reads)
	if err != nil {
		return nil, nil, err
	}
	l.subs = append(l.subs, sub)
	return sub, sub.C(), nil
}

// offer hands the message to the forwarder, which counts it against the
// checkpoint ack gate from this call on.
func (l *tcpLink) offer(msg transport.CandMsg) error { return l.fw.Offer(msg) }

// acked waits, at most NetDrainTimeout, for the hub to ack every candidate
// message offered so far — that is, to have decided it.
func (l *tcpLink) acked() bool { return l.fw.WaitDrained(l.cfg.netDrainTimeout()) }

func (l *tcpLink) closeFeed() { l.feed.Close() }

// close flushes the candidate stream — everything offered acked, then the
// FIN naming the slots whose feeds finished, which is what the hub's drain
// waits for — and tears the sockets down. It returns what ended the worker
// abnormally: a failed FIN exchange, and every feed's terminal error (the hub
// rejected its hello, or stayed unreachable for a whole outage budget).
func (l *tcpLink) close() error {
	errs := []error{l.fw.Finish(l.subs, l.cfg.netDrainTimeout())}
	l.fw.Close()
	l.feed.Close()
	for _, sub := range l.subs {
		errs = append(errs, sub.Err())
	}
	return errors.Join(errs...)
}

// listen binds the hub listener, the tier itself serving the workers'
// calls: accepting starts immediately, so the caller builds the tier first.
func (h *hubTier) listen() (err error) {
	batch := h.cfg.ApplyBatch
	if batch < 1 {
		batch = 64
	}
	h.server, err = transport.NewServer(transport.ServerConfig{
		Listen:   h.cfg.Listen,
		Backend:  h,
		BatchMax: batch,
		Metrics:  h.reg,
	})
	return err
}

// DeliverCandidates offers a socket's decoded batch for delivery, in order,
// and returns once the delivery loop has decided it (acked): the frame's ack
// then means what the in-process acked means.
func (h *hubTier) DeliverCandidates(msgs []transport.CandMsg) error {
	for _, m := range msgs {
		h.offer(m)
	}
	h.acked()
	return nil
}

// server returns the hub's transport server, nil on a process that is not
// a listening hub.
func (c *Cluster) server() *transport.Server {
	if c.hub == nil {
		return nil
	}
	return c.hub.server
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

// Wait blocks until every feed has ended — the hub's EOS, or a terminal
// error — then runs the full durable stop: final checkpoint cuts gated on
// candidate acks, forwarder flush and the FIN naming the finished slots,
// socket teardown. This is a worker process's main loop — start, Wait,
// exit — and it returns what ended the worker abnormally: a feed whose hello
// the hub rejected or whose outage budget ran out, and a failed FIN exchange.
func (c *Cluster) Wait() error {
	if c.cfg.Join == "" {
		return fmt.Errorf("cluster: Wait is the worker-mode main loop")
	}
	c.host.wg.Wait()
	return c.stop(true)
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
