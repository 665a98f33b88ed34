package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"motifstream/internal/broker"
	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/queue"
)

const (
	// dialTimeout bounds each individual dial+hello attempt.
	dialTimeout = 5 * time.Second
	// retryFor bounds the time spent redialing across one outage — the
	// initial handshake or the gap after a connection drop — before the
	// stream fails terminally. The budget resets on every successful attach,
	// so a hub that blinks within the window is survivable; one gone longer
	// than the window is treated as dead.
	retryFor = 10 * time.Second
)

// ClientOptions tune a worker's dialed connections.
type ClientOptions struct {
	// Metrics receives transport counters.
	Metrics *metrics.Registry
	// WrapWriter optionally wraps each connection's write side
	// (fault-injection seam for torn-write tests).
	WrapWriter DialWrapper
}

// FeedClient is a worker's view of the hub's firehose log: the log's
// identity, cached head/start bounds (refreshed by every envelope batch),
// and per-replica attachments that replay from a resume offset and survive
// connection drops by redialing idempotently.
type FeedClient struct {
	addr string
	opts ClientOptions

	logID       uint64
	head, start atomic.Uint64

	mu     sync.Mutex
	subs   map[*FeedSub]struct{}
	closed bool

	m          *connMetrics
	reconnects *metrics.Counter
	wg         sync.WaitGroup
}

// DialFeed performs the meta handshake against the hub (with retry, so
// the worker can start before the hub finishes binding) and returns a
// client carrying the log's identity and bounds.
func DialFeed(addr string, opts ClientOptions) (*FeedClient, error) {
	f := &FeedClient{
		addr: addr,
		opts: opts,
		subs: make(map[*FeedSub]struct{}),
		m:    newConnMetrics(opts.Metrics, "feed", ""),
	}
	if opts.Metrics != nil {
		f.reconnects = opts.Metrics.Counter("transport.reconnects")
	}
	deadline := time.Now().Add(retryFor)
	attempt := 0
	for {
		c, resp, err := dialConn(addr, []byte{msgHelloMeta}, dialTimeout, opts.WrapWriter, nil)
		if err == nil {
			c.close()
			wr := wireCursor(resp)
			if len(resp) == 0 || wr.Byte("meta type") != msgMetaResp {
				return nil, errors.New("transport: unexpected meta response")
			}
			meta := decodeLogMeta(wr)
			if wr.Err != nil {
				return nil, wr.Err
			}
			f.logID = meta.logID
			f.head.Store(meta.head)
			f.start.Store(meta.start)
			return f, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: meta handshake with %s: %w", addr, err)
		}
		time.Sleep(backoff(attempt))
		attempt++
	}
}

// LogMeta returns the hub log's identity (the worker's runID) and its head
// and truncation point as of the latest batch or handshake.
func (f *FeedClient) LogMeta() (logID, head, start uint64) {
	return f.logID, f.head.Load(), f.start.Load()
}

// SubscribeReplica attaches slot (pid, r) at generation gen: floor is the
// replica's durable restore floor (the hub pins its log truncation to it
// from the attach on), offset where the stream resumes, and reads the
// replica's read surface, which answers the hub broker's requests arriving
// on the feed. The returned subscription's channel closes on clean
// end-of-stream (hub shutdown) or Close; connection drops reconnect with
// idempotent redelivery.
func (f *FeedClient) SubscribeReplica(pid, r, gen int, floor, offset uint64, reads broker.Replica) (*FeedSub, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, errors.New("transport: feed closed")
	}
	s := &FeedSub{
		f:     f,
		pid:   pid,
		r:     r,
		gen:   gen,
		reads: reads,
		floor: floor,
		next:  offset,
		ch:    make(chan queue.Envelope[graph.Edge], 256),
		done:  make(chan struct{}),
	}
	f.subs[s] = struct{}{}
	f.mu.Unlock()
	f.wg.Add(1)
	go s.run()
	return s, nil
}

// Close severs every subscription and waits for their goroutines. Each
// subscription's channel is closed, so consumers drain and exit exactly
// as they do when an in-process topic closes.
func (f *FeedClient) Close() {
	f.mu.Lock()
	f.closed = true
	subs := make([]*FeedSub, 0, len(f.subs))
	for s := range f.subs {
		subs = append(subs, s)
	}
	f.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
	f.wg.Wait()
}

// FeedSub is one replica's attachment to the hub's firehose over the wire.
type FeedSub struct {
	f           *FeedClient
	pid, r, gen int
	reads       broker.Replica

	next uint64 // next expected offset; envelopes below are dropped
	ch   chan queue.Envelope[graph.Edge]
	done chan struct{}

	mu       sync.Mutex
	c        *conn
	live     bool   // live announced; re-sent after reconnect
	floor    uint64 // durable floor; carried by every (re)attach hello
	err      error  // terminal error (hello rejection)
	stopOnce sync.Once
}

// C returns the envelope channel (same contract as a topic subscription).
func (s *FeedSub) C() <-chan queue.Envelope[graph.Edge] { return s.ch }

// Err reports a terminal subscription error (the hub rejected the hello:
// unknown slot, stale generation, truncated resume offset).
func (s *FeedSub) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// NotifyLive announces the replica finished catch-up. The desired state
// sticks: it is re-sent after every reconnect.
func (s *FeedSub) NotifyLive() {
	s.mu.Lock()
	s.live = true
	c := s.c
	s.mu.Unlock()
	if c != nil {
		c.writeMsg([]byte{msgLive})
	}
}

// ReportFloor tells the hub — which owns the log and truncates once every
// floor allows it — that the replica's durable restore floor advanced.
func (s *FeedSub) ReportFloor(floor uint64) {
	s.mu.Lock()
	if floor <= s.floor {
		s.mu.Unlock()
		return
	}
	s.floor = floor
	c := s.c
	s.mu.Unlock()
	if c != nil {
		c.writeMsg(appendU1(nil, msgFloorReport, floor))
	}
}

// Close detaches the subscription: the connection drops (the hub marks the
// slot down) and the envelope channel closes.
func (s *FeedSub) Close() {
	s.f.mu.Lock()
	delete(s.f.subs, s)
	s.f.mu.Unlock()
	s.stopOnce.Do(func() {
		close(s.done)
		s.mu.Lock()
		c := s.c
		s.mu.Unlock()
		if c != nil {
			c.close()
		}
	})
}

func (s *FeedSub) stopped() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

func (s *FeedSub) fail(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// run is the subscription's connection loop (redial): each hello carries the
// floor and resume offset as of its dial, each accepted connection streams
// envelope batches into ch. Exits (closing ch) on EOS, stop, client close, or
// a terminal redial error. A worker cannot tell a dead hub from one that shut
// down cleanly while it was between connections (the EOS went to nobody), so
// an exhausted outage budget ends the consumer and the worker's main loop
// rather than redialing forever.
func (s *FeedSub) run() {
	defer s.f.wg.Done()
	defer close(s.ch)
	envBuf := make([]queue.Envelope[graph.Edge], 0, 128)
	var floor uint64 // as the latest hello carried it
	hello := func() []byte {
		s.mu.Lock()
		floor = s.floor
		s.mu.Unlock()
		return encodeHelloFeed(helloFeed{pid: s.pid, r: s.r, gen: s.gen, floor: floor, resume: s.next})
	}
	err := redial(s.f.addr, s.f.opts, s.f.m, s.f.reconnects, s.stopped, hello, msgFeedAck, func(c *conn, ack []byte) (bool, error) {
		wr := wireCursor(ack)
		meta := decodeLogMeta(wr)
		if wr.Err != nil {
			return false, nil
		}
		if meta.logID != s.f.logID {
			return false, fmt.Errorf("hub log changed identity (%d -> %d)", s.f.logID, meta.logID)
		}
		s.f.head.Store(meta.head)
		s.f.start.Store(meta.start)

		// Re-announce desired state on the fresh connection: the hello
		// carried the floor as of the dial; a report that raced it, and the
		// live announcement, follow.
		s.mu.Lock()
		s.c = c
		raised, live := s.floor, s.live
		s.mu.Unlock()
		defer func() {
			s.mu.Lock()
			s.c = nil
			s.mu.Unlock()
		}()
		if s.stopped() {
			return true, nil
		}
		if raised > floor {
			c.writeMsg(appendU1(nil, msgFloorReport, raised))
		}
		if live {
			c.writeMsg([]byte{msgLive})
		}
		return s.stream(c, &envBuf), nil
	})
	if err != nil {
		s.fail(fmt.Errorf("transport: feed subscription %d/%d: %w", s.pid, s.r, err))
	}
}

// stream consumes one connection until it drops (false) or announces a
// clean end of stream (true). It answers the hub's reads inline, so a read
// waits behind the envelopes the hub wrote before it.
func (s *FeedSub) stream(c *conn, envBuf *[]queue.Envelope[graph.Edge]) bool {
	for {
		payload, err := c.readMsg()
		if err != nil {
			return false
		}
		if len(payload) == 0 {
			return false
		}
		switch payload[0] {
		case msgEnvBatch:
			wr := wireCursor(payload[1:])
			meta, envs, err := decodeEnvBatch(wr, (*envBuf)[:0])
			*envBuf = envs[:0]
			if err != nil {
				return false
			}
			s.f.head.Store(meta.head)
			s.f.start.Store(meta.start)
			for _, env := range envs {
				if env.Offset < s.next {
					continue // redelivered after reconnect; already consumed
				}
				select {
				case s.ch <- env:
					s.next = env.Offset + 1
				case <-s.done:
					return true
				}
			}
		case msgRecsReq, msgTopReq:
			resp := s.answer(payload)
			if resp == nil || c.writeMsg(resp) != nil {
				return false
			}
		case msgEOS:
			return true
		default:
			return false
		}
	}
}

// answer serves one read request from the replica's read surface; nil when
// the request does not decode.
func (s *FeedSub) answer(req []byte) []byte {
	id, arg, err := decodeReadReq(wireCursor(req[1:]))
	if err != nil {
		return nil
	}
	if req[0] == msgRecsReq {
		return encodeRecsResp(id, s.reads.RecommendationsFor(graph.VertexID(arg)))
	}
	return encodeTopResp(id, s.reads.TopItems(int(arg)))
}
