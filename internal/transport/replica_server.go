package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
)

// ReplicaQuerier is the read surface a worker exposes per replica — the
// same queries the broker serves in-process.
type ReplicaQuerier interface {
	RecommendationsFor(a graph.VertexID) []motif.Candidate
	TopItems(n int) []partition.ItemCount
}

// ReplicaServer wraps a worker's replicas behind a listener so the hub's
// broker can dial them for fan-out reads. One connection serves one
// (pid, r) slot; requests are pipelined with correlation ids.
type ReplicaServer struct {
	ln net.Listener

	mu     sync.Mutex
	reps   map[[2]int]ReplicaQuerier
	conns  map[*conn]struct{}
	closed bool

	m  *connMetrics
	wg sync.WaitGroup
}

// NewReplicaServer binds the read listener (addr may be ":0").
func NewReplicaServer(addr string, reg *metrics.Registry) (*ReplicaServer, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: read listener %s: %w", addr, err)
	}
	s := &ReplicaServer{
		ln:    ln,
		reps:  make(map[[2]int]ReplicaQuerier),
		conns: make(map[*conn]struct{}),
		m:     newConnMetrics(reg, "read", ""),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound read address, advertised in feed hellos.
func (s *ReplicaServer) Addr() string { return s.ln.Addr().String() }

// Register exposes a replica for reads.
func (s *ReplicaServer) Register(pid, r int, q ReplicaQuerier) {
	s.mu.Lock()
	s.reps[[2]int{pid, r}] = q
	s.mu.Unlock()
}

func (s *ReplicaServer) acceptLoop() {
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

func (s *ReplicaServer) handle(nc net.Conn) {
	defer s.wg.Done()
	c, hello, err := acceptConn(nc, 5*time.Second)
	if err != nil {
		nc.Close()
		return
	}
	defer c.close()
	if len(hello) == 0 || hello[0] != msgHelloRead {
		c.writeMsg(encodeHelloErr("expected read hello"))
		return
	}
	wr := wireCursor(hello[1:])
	pid := int(wr.U("read pid"))
	r := int(wr.U("read replica"))
	if wr.Err != nil {
		return
	}
	s.mu.Lock()
	q := s.reps[[2]int{pid, r}]
	if q != nil && !s.closed {
		s.conns[c] = struct{}{}
	} else if s.closed {
		q = nil
	}
	s.mu.Unlock()
	if q == nil {
		c.writeMsg(encodeHelloErr(fmt.Sprintf("replica p%d/r%d not served here", pid, r)))
		return
	}
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	c.m = s.m
	if c.writeMsg([]byte{msgReadAck}) != nil {
		return
	}
	for {
		payload, err := c.readMsg()
		if err != nil || len(payload) == 0 {
			return
		}
		wr := wireCursor(payload[1:])
		switch payload[0] {
		case msgRecsReq:
			id := wr.U("recs id")
			user := graph.VertexID(wr.U("recs user"))
			if wr.Err != nil {
				return
			}
			if c.writeMsg(encodeRecsResp(id, q.RecommendationsFor(user))) != nil {
				return
			}
		case msgTopReq:
			id := wr.U("top id")
			n := int(wr.U("top n"))
			if wr.Err != nil {
				return
			}
			if c.writeMsg(encodeTopResp(id, q.TopItems(n))) != nil {
				return
			}
		default:
			return
		}
	}
}

// Close stops accepting and severs every read connection.
func (s *ReplicaServer) Close() {
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
