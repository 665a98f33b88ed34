package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"motifstream/internal/broker"
	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/queue"
)

// Attachment is one replica host's claim on a slot, from attach to detach.
// A worker holds a *FeedSub; the server relays its reports to the
// Attachment the hub tier returned for the same hello.
type Attachment interface {
	// NotifyLive: the replica caught up with the log head it attached at.
	NotifyLive()
	// ReportFloor: the replica's durable restore floor advanced.
	ReportFloor(floor uint64)
	// Close detaches: the slot is down until the next attach.
	Close()
}

// HubBackend is the hub tier's side of the replica-host contract, as the
// server drives it for socket-attached workers (docs/OPERATIONS.md,
// "Replica host ↔ hub contract"). All methods must be safe for concurrent
// use; they are called from per-connection handler goroutines.
type HubBackend interface {
	// LogMeta reports the firehose log's identity and current bounds.
	LogMeta() (logID, head, start uint64)
	// ReplicaAttached validates and records a worker taking ownership of
	// slot (pid, r) at generation gen, publishing its restore floor and
	// opening the firehose subscription at resume (replay-then-live) as one
	// step; reads is the slot's broker member, which asks the worker over
	// this attach's feed connection. The newest attachment owns the slot;
	// what a superseded one reports, its Close included, is ignored.
	ReplicaAttached(pid, r, gen int, floor, resume uint64, reads broker.Replica) (Attachment, <-chan queue.Envelope[graph.Edge], error)
	// DeliverCandidates publishes decoded candidate messages into the
	// hub's delivery topic, in slice order. Idempotent under redelivery:
	// the delivery tier's per-group monotonic offset filter drops
	// duplicates. Returns an error only when delivery is shut down. The msgs
	// slice is the connection's and valid only for the duration of the call
	// (copy a message by value to keep it); its Cands and their Vias are
	// windows of the connection's decode arenas, never reused, and may be
	// retained (motif.Candidate.Via's contract).
	DeliverCandidates(msgs []CandMsg) error
}

// helloTimeout bounds the preamble+hello exchange on an accepted connection.
const helloTimeout = 5 * time.Second

// ServerConfig configures the hub listener.
type ServerConfig struct {
	// Listen is the TCP bind address (host:port; port 0 picks a free one).
	Listen string
	// Backend receives decoded protocol events.
	Backend HubBackend
	// BatchMax bounds envelopes coalesced per feed frame (defaults to 64).
	BatchMax int
	// DrainQuiet is how long the connection set must stay empty before a
	// drain concludes no worker is coming back (defaults to 2s — above the
	// clients' 1s reconnect-backoff ceiling, so a worker that was between
	// connections when the shutdown started still gets to reconnect and
	// flush).
	DrainQuiet time.Duration
	// Metrics receives per-connection-kind transport counters.
	Metrics *metrics.Registry
}

// Server is the hub's listener: it accepts feed, candidate, and meta
// connections from workers and bridges them onto the HubBackend.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	mu         sync.Mutex
	conns      map[*conn]struct{}
	lastChange time.Time // last conn-set mutation, for drain quiescence
	tracked    bool      // any connection ever tracked
	closed     bool

	feedM *connMetrics
	candM *connMetrics
	// attached mirrors len(conns) into the registry; nil without Metrics.
	attached *metrics.Gauge

	wg sync.WaitGroup
}

// NewServer binds the listener and starts accepting connections.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("transport: server requires a backend")
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 64
	}
	if cfg.DrainQuiet <= 0 {
		cfg.DrainQuiet = 2 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		conns: make(map[*conn]struct{}),
		feedM: newConnMetrics(cfg.Metrics, "feed", ""),
		candM: newConnMetrics(cfg.Metrics, "cands", ""),
	}
	if cfg.Metrics != nil {
		s.attached = cfg.Metrics.Gauge("transport.attached_connections")
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.handle(nc)
	}
}

// track registers a live connection; returns false when the server is
// already closing (the conn must be dropped).
func (s *Server) track(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	s.tracked = true
	s.connsChangedLocked()
	return true
}

// untrack forgets a connection; a no-op when DropConnections already did.
func (s *Server) untrack(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.conns[c]; !ok {
		return
	}
	delete(s.conns, c)
	s.connsChangedLocked()
}

func (s *Server) connsChangedLocked() {
	s.lastChange = time.Now()
	if s.attached != nil {
		s.attached.Set(int64(len(s.conns)))
	}
}

// Connections returns the number of attached worker connections (feeds
// plus candidate streams) — what the next DropConnections would sever.
func (s *Server) Connections() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	c, hello, err := acceptConn(nc, helloTimeout)
	if err != nil {
		nc.Close()
		return
	}
	if len(hello) == 0 {
		c.close()
		return
	}
	switch hello[0] {
	case msgHelloMeta:
		s.handleMeta(c)
	case msgHelloFeed:
		s.handleFeed(c, hello[1:])
	case msgHelloCands:
		s.handleCands(c, hello[1:])
	default:
		c.writeMsg(encodeHelloErr(fmt.Sprintf("unknown hello type %d", hello[0])))
		c.close()
	}
}

func (s *Server) handleMeta(c *conn) {
	defer c.close()
	logID, head, start := s.cfg.Backend.LogMeta()
	c.writeMsg(appendLogMeta([]byte{msgMetaResp}, logMeta{logID, head, start}))
}

// handleFeed serves one replica's firehose subscription: replay-then-live
// envelope batches and the broker's read requests downstream, floor/live
// reports and read responses upstream. The slot's broker member lives as
// long as this connection: when the handler returns, its calls fail.
func (s *Server) handleFeed(c *conn, body []byte) {
	wr := wireCursor(body)
	h := decodeHelloFeed(wr)
	if wr.Err != nil {
		c.close()
		return
	}
	b := s.cfg.Backend
	rr := newRemoteReplica(h.pid, s.cfg.Metrics)
	defer close(rr.done)
	att, sub, err := b.ReplicaAttached(h.pid, h.r, h.gen, h.floor, h.resume, rr)
	if err != nil {
		c.writeMsg(encodeHelloErr(err.Error()))
		c.close()
		return
	}
	defer att.Close()
	if !s.track(c) {
		c.close()
		return
	}
	c.m = s.feedM
	logID, head, start := b.LogMeta()
	if err := c.writeMsg(appendLogMeta([]byte{msgFeedAck}, logMeta{logID, head, start})); err != nil {
		s.untrack(c)
		c.close()
		return
	}

	// Reader: upstream floor/live reports and read responses; closes done on
	// any error so the writer stops waiting on the subscription.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			payload, err := c.readMsg()
			if err != nil {
				return
			}
			wr := wireCursor(payload[1:])
			switch payload[0] {
			case msgFloorReport:
				floor := wr.U("floor")
				if wr.Err == nil {
					att.ReportFloor(floor)
				}
			case msgLive:
				att.NotifyLive()
			case msgRecsResp, msgTopResp:
				rr.deliver(payload)
			default:
				return
			}
		}
	}()

	batch := make([]queue.Envelope[graph.Edge], 0, s.cfg.BatchMax)
	var frame []byte // every envelope batch is encoded into this one buffer
	eos := false
loop:
	for {
		select {
		case env, ok := <-sub:
			if !ok {
				eos = true
				break loop
			}
			batch = append(batch[:0], env)
			// Coalesce whatever is immediately available, up to the bound.
			for len(batch) < s.cfg.BatchMax {
				select {
				case env, ok := <-sub:
					if !ok {
						eos = true
						break
					}
					batch = append(batch, env)
					continue
				case <-done:
				default:
				}
				break
			}
			logID, head, start := b.LogMeta()
			frame = encodeEnvBatch(frame[:0], logMeta{logID, head, start}, batch)
			if err := c.writeMsg(frame); err != nil {
				break loop
			}
			if eos {
				break loop
			}
		case req := <-rr.reqs:
			if err := c.writeMsg(req); err != nil {
				break loop
			}
		case <-done:
			break loop
		}
	}
	if eos {
		c.writeMsg([]byte{msgEOS})
	}
	s.untrack(c)
	c.close()
	<-done // reader exited: the attachment reports nothing after its Close
}

// handleCands serves one worker's candidate stream: batches are published
// into the hub's delivery topic in order, then cumulatively acked. The
// ack is only written after every message in the batch is durably handed
// to the backend, preserving at-least-once across hub or worker crashes.
// The connection decodes every batch through one candDecoder and writes
// every ack from one buffer, so a steady stream allocates per arena chunk.
func (s *Server) handleCands(c *conn, body []byte) {
	wr := wireCursor(body)
	logID := wr.U("cands log id")
	if wr.Err != nil {
		c.close()
		return
	}
	b := s.cfg.Backend
	wantID, _, _ := b.LogMeta()
	if logID != wantID {
		c.writeMsg(encodeHelloErr(fmt.Sprintf("log id mismatch: worker %d, hub %d", logID, wantID)))
		c.close()
		return
	}
	if !s.track(c) {
		c.close()
		return
	}
	c.m = s.candM
	defer func() {
		s.untrack(c)
		c.close()
	}()
	var ack []byte
	writeAck := func(seq uint64) error {
		ack = appendU1(ack[:0], msgCandAck, seq)
		return c.writeMsg(ack)
	}
	if err := writeAck(0); err != nil {
		return
	}
	dec := newCandDecoder()
	var lastSeq uint64
	for {
		payload, err := c.readMsg()
		if err != nil {
			return
		}
		wr := wireCursor(payload[1:])
		switch payload[0] {
		case msgCandBatch:
			seq, msgs, err := decodeCandBatch(wr, dec)
			if err != nil {
				return
			}
			if seq <= lastSeq && lastSeq > 0 {
				// Duplicate after reconnect-with-resend; the delivery
				// filter would drop the contents anyway, skip the publish.
				writeAck(lastSeq)
				continue
			}
			if err := b.DeliverCandidates(msgs); err != nil {
				return
			}
			lastSeq = seq
			if err := writeAck(seq); err != nil {
				return
			}
		case msgCandFin:
			writeAck(lastSeq)
			return
		default:
			return
		}
	}
}

// DrainWorkers blocks until every worker has finished its shutdown
// exchange: feeds drained to EOS, final candidate batches flushed and
// FINed, all connections closed — sustained for DrainQuiet, so a worker
// that was between connections (mid-reconnect-backoff after a network
// blip) still gets to come back, replay the closed log's tail, and flush.
// A hub that never saw a worker returns immediately. Returns whether the
// drain completed before the timeout.
func (s *Server) DrainWorkers(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		n := len(s.conns)
		last := s.lastChange
		tracked := s.tracked
		s.mu.Unlock()
		if !tracked || (n == 0 && time.Since(last) >= s.cfg.DrainQuiet) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// DropConnections severs every currently-tracked connection without
// closing the listener — a network blip, as the fault-injection harnesses
// see it. Workers reconnect with backoff and resume idempotently. The
// severed connections leave the tracked set here, not when their handlers
// notice, so Connections counts only connections attached since.
func (s *Server) DropConnections() int {
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	clear(s.conns)
	s.connsChangedLocked()
	s.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
	return len(conns)
}

// Close stops accepting, severs all connections, and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.close()
	}
	s.wg.Wait()
}
