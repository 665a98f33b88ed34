package transport

import (
	"errors"
	"sync"
	"time"

	"motifstream/internal/metrics"
)

const (
	// forwarderWindow bounds the candidate messages a forwarder holds between
	// Offer and the hub's ack, framed or not. At the bound Offer blocks —
	// backpressure reaches the replica apply loops exactly as a full
	// in-process candidate queue's would (same depth as its buffer).
	forwarderWindow = 4096
	// candFrameMax bounds the messages coalesced into one frame: the hub acks
	// a frame only after delivering all of it, so this is also the coarsest
	// step the checkpoint gate advances in.
	candFrameMax = 64
)

var errForwarderClosed = errors.New("transport: candidate forwarder closed")

// CandForwarder is a worker's one candidate queue: everything between a
// replica's Offer and the hub's cumulative ack. Offered messages wait unframed
// until the connection's writer is ready for them; it then coalesces up to
// candFrameMax into a frame and gives the frame its sequence number. Unacked
// frames are retained and resent verbatim, in order, after a reconnect, which
// the hub's per-group monotonic offset filter collapses to exactly-once
// delivery.
//
// It also owns the worker's checkpoint gate: a durable checkpoint cut waits
// (WaitDrained) until the hub has acked everything offered so far.
type CandForwarder struct {
	addr  string
	logID uint64
	opts  ClientOptions

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []CandMsg   // offered, not yet framed, oldest first
	ring     []candEntry // unacked frames, ascending seq, contiguous
	nextSeq  uint64      // seq of the next frame formed (first is 1)
	unsent   int         // frames at the ring's tail not yet written on the live conn
	offered  int64       // messages accepted by Offer
	acked    int64       // messages covered by cumulative acks
	c        *conn
	finReq   bool // Finish called: writer sends FIN once everything is acked
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
	f := &CandForwarder{addr: addr, logID: logID, opts: opts, nextSeq: 1}
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

// Offer queues one message for the hub, blocking while forwarderWindow
// messages are unacked. Safe for concurrent use (a worker's several apply
// loops); messages of one caller reach the hub in the order offered. Fails
// once the forwarder is aborted, closed or finishing — a caller blocked at the
// bound included.
func (f *CandForwarder) Offer(msg CandMsg) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.offered-f.acked >= forwarderWindow && !f.aborted && !f.closed {
		f.cond.Wait()
	}
	if f.aborted || f.closed || f.finReq {
		return errForwarderClosed
	}
	f.offered++
	f.pending = append(f.pending, msg)
	f.cond.Broadcast() // wake the writer
	return nil
}

// WaitDrained blocks until the hub has acked every message offered as of
// entry, or the timeout elapses. The target is a snapshot — concurrent
// offers by other replicas on the same worker keep growing the total, and
// chasing it could starve a cut forever; the caller's own offers all
// happened-before its call, which is the soundness the checkpoint gate
// needs. Returns false on timeout or abort — the caller must then skip its
// checkpoint cut.
func (f *CandForwarder) WaitDrained(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	f.mu.Lock()
	defer f.mu.Unlock()
	target := f.offered
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

// Finish flushes: after the last Offer, waits for everything offered to be
// acked, sends FIN, and waits for the final exchange. Returns false on
// timeout or abort.
func (f *CandForwarder) Finish(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.finReq = true
	f.cond.Broadcast()
	for !f.finished && !f.aborted {
		if !f.waitUntilLocked(deadline) {
			return false
		}
	}
	return f.finished
}

// Abort severs the stream without flushing — the crash path. Unacked
// messages are dropped and blocked Offers fail; a successor worker re-emits
// them from its checkpoint (cuts never covered unacked offsets).
func (f *CandForwarder) Abort() { f.stop(&f.aborted) }

// Close tears the forwarder down (after Finish on the clean path).
func (f *CandForwarder) Close() { f.stop(&f.closed) }

// stop raises flag, severs the live connection and waits for manage to exit.
func (f *CandForwarder) stop(flag *bool) {
	f.mu.Lock()
	*flag = true
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

// manage is the connection loop (redial): on each accepted connection,
// resend what is unacked, then frame and stream what is offered (writer
// goroutine) while reading cumulative acks. A terminal redial error — the hub
// rejected the stream or stayed unreachable for a whole outage budget — aborts
// the forwarder: blocked Offers fail and the worker's stop path completes
// (with a checkpoint-gate error). What was unacked is exactly what the
// ack-gated cuts never covered, so a successor re-emits it.
func (f *CandForwarder) manage() {
	defer f.wg.Done()
	hello := func() []byte { return appendU1(nil, msgHelloCands, f.logID) }
	err := redial(f.addr, f.opts, f.m, f.reconnects, f.done, hello, msgCandAck, func(c *conn, _ []byte) (bool, error) {
		f.mu.Lock()
		if f.closed || f.aborted {
			// Close/Abort raced the redial: it found f.c nil and had
			// nothing to sever, so entering the session would block
			// readAcks on a healthy socket forever. The flag and f.c are
			// set under one lock, so exactly one side closes the conn.
			f.mu.Unlock()
			return true, nil
		}
		f.c = c
		f.unsent = len(f.ring) // resend everything unacked, in order
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
		return false, nil
	})
	if err != nil {
		f.mu.Lock()
		f.aborted = true
		f.cond.Broadcast()
		f.mu.Unlock()
	}
}

// writeLoop streams frames on one connection — the ring's unsent tail first
// (a reconnect's resends), then a fresh frame of whatever is pending each
// time the socket is free — and FIN once Finish was called and everything is
// acked.
func (f *CandForwarder) writeLoop(c *conn, done chan<- struct{}) {
	defer close(done)
	for {
		f.mu.Lock()
		for {
			if f.closed || f.aborted || f.c != c {
				f.mu.Unlock()
				return
			}
			if f.unsent > 0 {
				e := &f.ring[len(f.ring)-f.unsent]
				f.unsent--
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
			if len(f.pending) > 0 {
				f.framePendingLocked()
				continue
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

// framePendingLocked moves up to candFrameMax pending messages into one new
// frame at the ring's tail.
func (f *CandForwarder) framePendingLocked() {
	n := min(len(f.pending), candFrameMax)
	f.ring = append(f.ring, candEntry{seq: f.nextSeq, nmsgs: n, frame: encodeCandBatch(f.nextSeq, f.pending[:n])})
	f.nextSeq++
	f.unsent++
	rest := copy(f.pending, f.pending[n:])
	clear(f.pending[rest:]) // the frame owns the bytes; drop the candidate lists
	f.pending = f.pending[:rest]
}

// readAcks consumes cumulative acks until the connection drops or the
// final FIN ack arrives. An ack covers only frames written on this
// connection: one naming a frame still unsent is not the hub's to give.
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
		for popped < len(f.ring)-f.unsent && f.ring[popped].seq <= seq {
			e := f.ring[popped]
			f.acked += int64(e.nmsgs)
			if f.rtt != nil && e.sentNS > 0 {
				f.rtt.Observe(time.Duration(now - e.sentNS))
			}
			popped++
		}
		if popped > 0 {
			// Keep the ring anchored, as framePendingLocked keeps pending: a
			// reslice past the acked frames would leave them in the backing
			// array, alive until an append happened to reallocate it.
			rest := copy(f.ring, f.ring[popped:])
			clear(f.ring[rest:])
			f.ring = f.ring[:rest]
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
