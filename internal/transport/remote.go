package transport

import (
	"errors"
	"sync"
	"time"

	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
)

// ReadTimeout bounds one broker read of a worker's replica.
const ReadTimeout = 5 * time.Second

var (
	errReadClosed  = errors.New("transport: the read's feed connection ended")
	errReadTimeout = errors.New("transport: read timed out")
)

// RemoteReplica is the hub's broker member for a slot a worker runs. It
// satisfies broker.Replica over the feed connection of one attach: the feed's
// writer takes its requests between envelope batches, and the feed's upstream
// reader routes the worker's answers back by request id. It ends with that
// connection; the next attach brings a new member.
type RemoteReplica struct {
	pid     int
	timeout time.Duration
	reqs    chan []byte   // request frames, taken by the feed's writer
	done    chan struct{} // closed when the feed connection's handler returns

	mu      sync.Mutex
	nextID  uint64
	waiting map[uint64]chan []byte // in-flight calls by request id

	rtt  *metrics.Histogram
	errs *metrics.Counter
}

func newRemoteReplica(pid int, reg *metrics.Registry) *RemoteReplica {
	rr := &RemoteReplica{
		pid:     pid,
		timeout: ReadTimeout,
		reqs:    make(chan []byte),
		done:    make(chan struct{}),
		waiting: make(map[uint64]chan []byte),
	}
	if reg != nil {
		rr.rtt = reg.Histogram("transport.read.rtt")
		rr.errs = reg.Counter("transport.read.errors")
	}
	return rr
}

// ID returns the partition id (broker.Replica contract).
func (rr *RemoteReplica) ID() int { return rr.pid }

// rpc performs one request/response exchange and returns the response's body
// after the type byte. A failure — the connection ended, the timeout passed,
// a response of the wrong type — is counted; a timed-out call's late answer
// finds no waiter and is dropped.
func (rr *RemoteReplica) rpc(typ byte, arg uint64, wantType byte) ([]byte, error) {
	rr.mu.Lock()
	rr.nextID++
	id := rr.nextID
	ch := make(chan []byte, 1)
	rr.waiting[id] = ch
	rr.mu.Unlock()
	start := time.Now()
	resp, err := rr.await(typeU2(typ, id, arg), ch)
	rr.mu.Lock()
	delete(rr.waiting, id)
	rr.mu.Unlock()
	if err == nil && resp[0] != wantType {
		err = errors.New("transport: unexpected read response")
	}
	if err != nil {
		if rr.errs != nil {
			rr.errs.Inc()
		}
		return nil, err
	}
	if rr.rtt != nil {
		rr.rtt.Observe(time.Since(start))
	}
	return resp[1:], nil
}

// await hands req to the feed's writer and waits for the answer on ch, both
// within one timeout. The timeout is a timer, not a deadline on the socket:
// one firing there would sever the feed. Behind an envelope backlog the
// writer takes the request late, or the worker answers late; either way the
// wait ends at the timeout.
func (rr *RemoteReplica) await(req []byte, ch chan []byte) ([]byte, error) {
	t := time.NewTimer(rr.timeout)
	defer t.Stop()
	select {
	case rr.reqs <- req:
	case <-rr.done:
		return nil, errReadClosed
	case <-t.C:
		return nil, errReadTimeout
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-rr.done:
		return nil, errReadClosed
	case <-t.C:
		return nil, errReadTimeout
	}
}

// deliver hands a response frame to the call waiting on its id. It copies
// the frame, which aliases the connection's read buffer.
func (rr *RemoteReplica) deliver(payload []byte) {
	id := wireCursor(payload[1:]).U("resp id")
	rr.mu.Lock()
	ch := rr.waiting[id]
	delete(rr.waiting, id)
	rr.mu.Unlock()
	if ch != nil {
		ch <- append([]byte(nil), payload...)
	}
}

// RecommendationsFor queries the worker's replica. Failures return nil —
// the broker treats that as an empty read, and health is governed by the
// feed's attach and live reports, not the read path.
func (rr *RemoteReplica) RecommendationsFor(a graph.VertexID) []motif.Candidate {
	body, err := rr.rpc(msgRecsReq, uint64(a), msgRecsResp)
	if err != nil {
		return nil
	}
	_, out, err := decodeRecsResp(wireCursor(body))
	if err != nil {
		return nil
	}
	return out
}

// TopItems queries the worker's replica's fan-out aggregate.
func (rr *RemoteReplica) TopItems(n int) []partition.ItemCount {
	body, err := rr.rpc(msgTopReq, uint64(n), msgTopResp)
	if err != nil {
		return nil
	}
	_, out, err := decodeTopResp(wireCursor(body))
	if err != nil {
		return nil
	}
	return out
}
