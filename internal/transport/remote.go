package transport

import (
	"errors"
	"sync"
	"time"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
)

// RemoteReplica is the hub's dial-based broker member: it satisfies the
// broker.Replica read surface by RPC against the worker's ReplicaServer.
// It starts with no address (broker marks it down); the worker's feed
// attach supplies one. The connection is dialed lazily per query and kept
// for pipelining; any error drops it and the next query redials.
type RemoteReplica struct {
	pid, r  int
	timeout time.Duration

	mu     sync.Mutex
	addr   string
	c      *conn
	nextID uint64
	closed bool

	m    *connMetrics
	rtt  *metrics.Histogram
	errs *metrics.Counter
}

// NewRemoteReplica creates an unaddressed remote member for slot (pid, r).
func NewRemoteReplica(pid, r int, timeout time.Duration, reg *metrics.Registry) *RemoteReplica {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	rr := &RemoteReplica{pid: pid, r: r, timeout: timeout, m: newConnMetrics(reg, "read", "")}
	if reg != nil {
		rr.rtt = reg.Histogram("transport.read.rtt")
		rr.errs = reg.Counter("transport.read.errors")
	}
	return rr
}

// ID returns the partition id (broker.Replica contract).
func (rr *RemoteReplica) ID() int { return rr.pid }

// SetAddr records the worker's read address for this slot.
func (rr *RemoteReplica) SetAddr(addr string) {
	rr.mu.Lock()
	if addr != rr.addr {
		rr.addr = addr
		if rr.c != nil {
			rr.c.close()
			rr.c = nil
		}
	}
	rr.mu.Unlock()
}

// connLocked returns the live connection, dialing if needed.
func (rr *RemoteReplica) connLocked() (*conn, error) {
	if rr.closed {
		return nil, errors.New("transport: remote replica closed")
	}
	if rr.c != nil {
		return rr.c, nil
	}
	if rr.addr == "" {
		return nil, errors.New("transport: remote replica has no address")
	}
	hello := typeU2(msgHelloRead, uint64(rr.pid), uint64(rr.r))
	c, ack, err := dialConn(rr.addr, hello, rr.timeout, nil, rr.m)
	if err != nil {
		return nil, err
	}
	if len(ack) == 0 || ack[0] != msgReadAck {
		c.close()
		return nil, errors.New("transport: read hello refused")
	}
	rr.c = c
	return c, nil
}

// rpc performs one request/response exchange under the member lock (reads
// are serialized per member; the broker fans out across members for
// parallelism). Any failure drops the connection for a fresh dial next
// time.
func (rr *RemoteReplica) rpc(encode func(id uint64) []byte, wantType byte) (*codecutil.Cursor, error) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	c, err := rr.connLocked()
	if err != nil {
		if rr.errs != nil {
			rr.errs.Inc()
		}
		return nil, err
	}
	rr.nextID++
	id := rr.nextID
	start := time.Now()
	c.setReadDeadline(rr.timeout)
	defer c.setReadDeadline(0)
	err = c.writeMsg(encode(id))
	for err == nil {
		var payload []byte
		payload, err = c.readMsg()
		if err != nil {
			break
		}
		if len(payload) == 0 || payload[0] != wantType {
			err = errors.New("transport: unexpected read response")
			break
		}
		wr := wireCursor(payload[1:])
		respID := wr.U("resp id")
		if wr.Err != nil {
			err = wr.Err
			break
		}
		if respID != id {
			continue // stale response from a timed-out predecessor
		}
		if rr.rtt != nil {
			rr.rtt.Observe(time.Since(start))
		}
		return wr, nil
	}
	c.close()
	rr.c = nil
	if rr.errs != nil {
		rr.errs.Inc()
	}
	return nil, err
}

// RecommendationsFor queries the remote replica's ranked store. Failures
// return nil — the broker treats that as an empty read, and health is
// governed by the feed connection, not the read path.
func (rr *RemoteReplica) RecommendationsFor(a graph.VertexID) []motif.Candidate {
	wr, err := rr.rpc(func(id uint64) []byte {
		return typeU2(msgRecsReq, id, uint64(a))
	}, msgRecsResp)
	if err != nil {
		return nil
	}
	out := decodeCandidates(wr, "recs count")
	if wr.Err != nil {
		return nil
	}
	return out
}

// TopItems queries the remote replica's fan-out aggregate.
func (rr *RemoteReplica) TopItems(n int) []partition.ItemCount {
	wr, err := rr.rpc(func(id uint64) []byte {
		return typeU2(msgTopReq, id, uint64(n))
	}, msgTopResp)
	if err != nil {
		return nil
	}
	cnt := wr.Count("top count", 2)
	var out []partition.ItemCount
	for i := 0; i < cnt && wr.Err == nil; i++ {
		var it partition.ItemCount
		it.Item = graph.VertexID(wr.U("top item"))
		it.Count = wr.U("top item count")
		out = append(out, it)
	}
	if wr.Err != nil {
		return nil
	}
	return out
}

// Close drops the member's connection permanently.
func (rr *RemoteReplica) Close() {
	rr.mu.Lock()
	rr.closed = true
	if rr.c != nil {
		rr.c.close()
		rr.c = nil
	}
	rr.mu.Unlock()
}
