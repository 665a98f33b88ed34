package transport

import (
	"errors"
	"sync"
	"time"

	"motifstream/internal/metrics"
)

// forwarderRing bounds unacked candidate batches buffered in the
// forwarder. When full, Send blocks — backpressure propagates to the
// replica consume loops exactly as a full in-process topic buffer would.
const forwarderRing = 256

// CandForwarder ships a worker's candidate stream to the hub with
// sequence numbers and cumulative acks. Unacked batches are retained and
// resent in order after a reconnect, which the hub's per-group monotonic
// offset filter collapses to exactly-once delivery.
//
// It also owns the worker's checkpoint gate: the cluster notes every
// candidate message before queueing it (NoteEnqueued), and a durable
// checkpoint cut waits (WaitDrained) until the hub has acked everything
// noted so far.
type CandForwarder struct {
	addr  string
	logID uint64
	opts  ClientOptions

	mu       sync.Mutex
	cond     *sync.Cond
	ring     []candEntry // unacked batches, ascending seq, contiguous
	nextSeq  uint64      // seq assigned to the next batch (first is 1)
	nextSend uint64      // seq of the next batch to write on the live conn
	enq      int64       // messages noted for the checkpoint gate
	acked    int64       // messages covered by cumulative acks
	c        *conn
	finReq   bool // Finish called: writer sends FIN once ring drains
	finSent  bool
	finished bool // hub acked everything and the FIN exchange completed
	closed   bool
	aborted  bool

	m          *connMetrics
	reconnects *metrics.Counter
	rtt        *metrics.Histogram
	wg         sync.WaitGroup
}

type candEntry struct {
	seq    uint64
	nmsgs  int
	frame  []byte
	sentNS int64
}

// NewCandForwarder starts the forwarder's connection manager. logID must
// be the hub log identity from the feed handshake; the hub refuses
// candidate streams for a different log.
func NewCandForwarder(addr string, logID uint64, opts ClientOptions) *CandForwarder {
	opts.defaults()
	f := &CandForwarder{addr: addr, logID: logID, opts: opts, nextSeq: 1, nextSend: 1}
	f.cond = sync.NewCond(&f.mu)
	f.m = newConnMetrics(opts.Metrics, "cands", "")
	if opts.Metrics != nil {
		f.reconnects = opts.Metrics.Counter("transport.reconnects")
		f.rtt = opts.Metrics.Histogram("transport.cands.rtt")
	}
	f.wg.Add(1)
	go f.manage()
	return f
}

// NoteEnqueued counts one candidate message about to be queued for Send.
func (f *CandForwarder) NoteEnqueued() {
	f.mu.Lock()
	f.enq++
	f.mu.Unlock()
}

// NoteAbandoned undoes a NoteEnqueued whose publish failed.
func (f *CandForwarder) NoteAbandoned() {
	f.mu.Lock()
	f.enq--
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Send enqueues one batch for transmission, blocking while the unacked
// ring is full. Safe for a single producer (the forwarder consume loop).
func (f *CandForwarder) Send(msgs []CandMsg) error {
	if len(msgs) == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.ring) >= forwarderRing && !f.aborted && !f.closed {
		f.cond.Wait()
	}
	if f.aborted || f.closed {
		return errors.New("transport: candidate forwarder closed")
	}
	seq := f.nextSeq
	f.nextSeq++
	f.ring = append(f.ring, candEntry{seq: seq, nmsgs: len(msgs), frame: encodeCandBatch(seq, msgs)})
	f.cond.Broadcast() // wake the writer
	return nil
}

// WaitDrained blocks until the hub has acked every message noted as of
// entry, or the timeout elapses. The target is a snapshot — concurrent
// publishes by other replicas on the same worker keep growing enq, and
// chasing the moving total could starve a cut forever; the caller's own
// notes all happened-before its call, which is the soundness the
// checkpoint gate needs. Returns false on timeout or abort — the caller
// must then skip its checkpoint cut.
func (f *CandForwarder) WaitDrained(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	f.mu.Lock()
	defer f.mu.Unlock()
	target := f.enq
	for f.acked < target && !f.aborted {
		if !f.waitUntilLocked(deadline) {
			return false
		}
	}
	return f.acked >= target
}

// waitUntilLocked waits for a condition broadcast with a deadline (cond
// vars have no native timeout; a timer broadcast provides one).
func (f *CandForwarder) waitUntilLocked(deadline time.Time) bool {
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return false
	}
	t := time.AfterFunc(remaining, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	f.cond.Wait()
	t.Stop()
	return time.Now().Before(deadline)
}

// Finish flushes: after the producer has stopped sending, waits for all
// outstanding batches to be acked, sends FIN, and waits for the final
// exchange. Returns false on timeout.
func (f *CandForwarder) Finish(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	f.mu.Lock()
	f.finReq = true
	f.cond.Broadcast()
	for !f.finished && !f.aborted {
		if !f.waitUntilLocked(deadline) {
			f.mu.Unlock()
			return false
		}
	}
	ok := f.finished
	f.mu.Unlock()
	return ok
}

// Abort severs the stream without flushing — the crash path. Unacked
// batches are dropped; a successor worker re-emits them from its
// checkpoint (cuts never covered unacked offsets).
func (f *CandForwarder) Abort() {
	f.mu.Lock()
	f.aborted = true
	c := f.c
	f.cond.Broadcast()
	f.mu.Unlock()
	if c != nil {
		c.close()
	}
	f.wg.Wait()
}

// Close tears the forwarder down (after Finish on the clean path).
func (f *CandForwarder) Close() {
	f.mu.Lock()
	f.closed = true
	c := f.c
	f.cond.Broadcast()
	f.mu.Unlock()
	if c != nil {
		c.close()
	}
	f.wg.Wait()
}

func (f *CandForwarder) done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed || f.aborted || f.finished
}

// manage is the connection loop: dial, resend unacked, then stream new
// batches (writer goroutine) while reading cumulative acks.
func (f *CandForwarder) manage() {
	defer f.wg.Done()
	attempt := 0
	giveUp := time.Now().Add(f.opts.RetryFor)
	for !f.done() {
		c, ack, err := dialConn(f.addr, typeU1(msgHelloCands, f.logID), f.opts.DialTimeout, f.opts.WrapWriter, f.m)
		if err != nil {
			var rej errHelloRejected
			abort := errors.As(err, &rej) ||
				// The hub stayed unreachable for a whole outage budget:
				// treat it like a rejection rather than redialing forever —
				// blocked Send callers unblock and the worker's stop path
				// completes (with a checkpoint-gate error). Unacked batches
				// are exactly what the ack-gated cuts never covered, so a
				// successor re-emits them. The budget resets per connection.
				time.Now().After(giveUp)
			if abort {
				f.mu.Lock()
				f.aborted = true
				f.cond.Broadcast()
				f.mu.Unlock()
				return
			}
			if f.done() {
				return
			}
			time.Sleep(backoff(attempt))
			attempt++
			if f.reconnects != nil {
				f.reconnects.Inc()
			}
			continue
		}
		attempt = 0
		giveUp = time.Now().Add(f.opts.RetryFor)
		wr := wireCursor(ack)
		if len(ack) == 0 || wr.Byte("cand ack type") != msgCandAck {
			c.close()
			continue
		}

		f.mu.Lock()
		if f.closed || f.aborted {
			// Close/Abort raced the redial: it found f.c nil and had
			// nothing to sever, so entering the session would block
			// readAcks on a healthy socket forever. The flag and f.c are
			// set under one lock, so exactly one side closes the conn.
			f.mu.Unlock()
			c.close()
			return
		}
		f.c = c
		// Resend everything unacked, in order, from the ring head.
		if len(f.ring) > 0 {
			f.nextSend = f.ring[0].seq
		} else {
			f.nextSend = f.nextSeq
		}
		f.finSent = false
		f.cond.Broadcast()
		f.mu.Unlock()

		writerDone := make(chan struct{})
		go f.writeLoop(c, writerDone)
		f.readAcks(c)

		f.mu.Lock()
		f.c = nil
		f.cond.Broadcast()
		f.mu.Unlock()
		c.close()
		<-writerDone
		if !f.done() && f.reconnects != nil {
			f.reconnects.Inc()
		}
	}
}

// writeLoop streams ring entries from nextSend upward on one connection,
// then FIN once the producer is finished and the ring is fully written.
func (f *CandForwarder) writeLoop(c *conn, done chan<- struct{}) {
	defer close(done)
	for {
		f.mu.Lock()
		for {
			if f.closed || f.aborted || f.c != c {
				f.mu.Unlock()
				return
			}
			if idx := f.entryIndexLocked(f.nextSend); idx >= 0 {
				e := &f.ring[idx]
				f.nextSend++
				e.sentNS = time.Now().UnixNano()
				frame := e.frame
				f.mu.Unlock()
				if c.writeMsg(frame) != nil {
					// A failed write poisons the connection even when the
					// socket itself survives (e.g. a torn buffered write):
					// close it so readAcks unblocks and manage redials.
					c.close()
					return
				}
				break
			}
			if f.finReq && len(f.ring) == 0 && !f.finSent {
				f.finSent = true
				f.mu.Unlock()
				if c.writeMsg([]byte{msgCandFin}) != nil {
					c.close()
				}
				return
			}
			f.cond.Wait()
		}
	}
}

// entryIndexLocked locates the ring entry with the given seq (-1 when
// seq is beyond the last enqueued batch).
func (f *CandForwarder) entryIndexLocked(seq uint64) int {
	if len(f.ring) == 0 {
		return -1
	}
	idx := int(seq - f.ring[0].seq)
	if idx < 0 || idx >= len(f.ring) {
		return -1
	}
	return idx
}

// readAcks consumes cumulative acks until the connection drops or the
// final FIN ack arrives.
func (f *CandForwarder) readAcks(c *conn) {
	for {
		payload, err := c.readMsg()
		if err != nil {
			return
		}
		if len(payload) == 0 || payload[0] != msgCandAck {
			return
		}
		wr := wireCursor(payload[1:])
		seq := wr.U("ack seq")
		if wr.Err != nil {
			return
		}
		now := time.Now().UnixNano()
		f.mu.Lock()
		popped := 0
		for popped < len(f.ring) && f.ring[popped].seq <= seq {
			e := f.ring[popped]
			f.acked += int64(e.nmsgs)
			if f.rtt != nil && e.sentNS > 0 {
				f.rtt.Observe(time.Duration(now - e.sentNS))
			}
			popped++
		}
		if popped > 0 {
			f.ring = f.ring[popped:]
		}
		fin := f.finSent && len(f.ring) == 0
		if fin {
			f.finished = true
		}
		f.cond.Broadcast()
		f.mu.Unlock()
		if fin {
			return
		}
	}
}
