package transport

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"motifstream/internal/broker"
	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
	"motifstream/internal/queue"
)

// writeFrame frames payload onto w the way a connection writes a message.
func writeFrame(w io.Writer, payload []byte) error {
	return (&conn{bw: bufio.NewWriter(w)}).writeMsg(payload)
}

// fakeHub is an in-memory HubBackend: a tiny replayable log plus
// recorders for every callback, so transport behavior is testable
// without a cluster.
type fakeHub struct {
	logID uint64
	// topic is the log: no backend, and a tail long enough for every test's
	// stream, so a reader can open at any offset published.
	topic *queue.Topic[graph.Edge]

	mu       sync.Mutex
	cands    []CandMsg
	rawCands int
	floor2   map[int]uint64            // pid -> highest delivered offset
	attached map[[2]int]int            // (pid,r) -> attach count
	reads    map[[2]int]broker.Replica // (pid,r) -> broker member of the newest attach
	hellos   []uint64                  // restore floor of every attach, in order
	lives    int
	floors   []uint64
	detached int
	closedBy []int       // which accepted hello (0-based, in attach order) each detach ended
	finished []helloFeed // every slot a candidate FIN named, in order (resume unset)
	// hold, when non-nil, parks every DeliverCandidates and ReplicaFinished
	// until it closes: a hub that takes frames and acks none.
	hold chan struct{}
}

func newFakeHub(logID uint64) *fakeHub {
	return &fakeHub{
		logID:    logID,
		topic:    queue.NewTopicWithLog[graph.Edge](queue.Options{Buffer: 4096}, nil),
		attached: make(map[[2]int]int),
		reads:    make(map[[2]int]broker.Replica),
		floor2:   make(map[int]uint64),
	}
}

func (f *fakeHub) LogMeta() (uint64, uint64, uint64) {
	return f.logID, f.topic.Published(), 0
}

// ReplicaAttached opens a reader at resume, clamped to the head.
func (f *fakeHub) ReplicaAttached(pid, r, gen int, floor, resume uint64, reads broker.Replica) (Attachment, Stream, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attached[[2]int{pid, r}]++
	f.reads[[2]int{pid, r}] = reads
	f.hellos = append(f.hellos, floor)
	sub, err := f.topic.NewReader(min(resume, f.topic.Published()))
	if err != nil {
		return nil, nil, err
	}
	return fakeAttachment{f, sub, len(f.hellos) - 1}, sub, nil
}

// fakeAttachment records what one accepted hello's worker reports.
type fakeAttachment struct {
	f   *fakeHub
	sub *queue.Reader[graph.Edge]
	n   int // position among the accepted hellos
}

func (f *fakeHub) publish(e graph.Edge) { f.topic.Publish(e, 0) }

func (f *fakeHub) closeTopic() { f.topic.Close() }

func (a fakeAttachment) NotifyLive() {
	a.f.mu.Lock()
	defer a.f.mu.Unlock()
	a.f.lives++
}

func (a fakeAttachment) ReportFloor(floor uint64) {
	a.f.mu.Lock()
	defer a.f.mu.Unlock()
	a.f.floors = append(a.f.floors, floor)
}

func (a fakeAttachment) Close() {
	a.f.mu.Lock()
	defer a.f.mu.Unlock()
	a.f.detached++
	a.f.closedBy = append(a.f.closedBy, a.n)
	a.sub.Close()
}

// DeliverCandidates mirrors the hub's contract: idempotent under
// redelivery via a per-group monotonic offset filter.
func (f *fakeHub) DeliverCandidates(msgs []CandMsg) error {
	if f.hold != nil {
		<-f.hold
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range msgs {
		f.rawCands++
		if last, ok := f.floor2[m.Pid]; ok && m.Offset <= last {
			continue
		}
		f.floor2[m.Pid] = m.Offset
		f.cands = append(f.cands, m)
	}
	return nil
}

// ReplicaFinished records one slot a FIN named.
func (f *fakeHub) ReplicaFinished(pid, r, gen int, floor uint64) {
	if f.hold != nil {
		<-f.hold
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.finished = append(f.finished, helloFeed{pid: pid, r: r, gen: gen, floor: floor})
}

// recv returns the stream's next envelope, or false at its end, waiting on
// Ready between empty reads; it fails the test after 10s with neither.
func recv(t *testing.T, s Stream) (queue.Envelope[graph.Edge], bool) {
	t.Helper()
	var one [1]queue.Envelope[graph.Edge]
	for {
		n, err := s.Read(one[:])
		if n == 1 {
			return one[0], true
		}
		if err != nil {
			return queue.Envelope[graph.Edge]{}, false
		}
		select {
		case <-s.Ready():
		case <-time.After(10 * time.Second):
			t.Fatal("no envelope and no end of stream within 10s")
		}
	}
}

// await polls cond, evaluated under the hub's lock, until it holds.
func (f *fakeHub) await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		f.mu.Lock()
		ok := cond()
		f.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

func testServer(t *testing.T, backend HubBackend) *Server {
	t.Helper()
	s, err := NewServer(ServerConfig{Listen: "127.0.0.1:0", Backend: backend, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestFeedResumeAcrossDrops streams envelopes through a real socket,
// severs every connection mid-stream, and requires the subscription to
// deliver each offset exactly once, in order, ending with a clean EOS.
func TestFeedResumeAcrossDrops(t *testing.T) {
	fake := newFakeHub(77)
	for i := 0; i < 40; i++ {
		fake.publish(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), TS: int64(i)})
	}
	srv := testServer(t, fake)

	fc, err := DialFeed(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if id, _, _ := fc.LogMeta(); id != 77 {
		t.Fatalf("log id = %d", id)
	}
	sub, err := fc.SubscribeReplica(0, 0, 1, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub.NotifyLive()

	var got []uint64
	for env, ok := recv(t, sub); ok; env, ok = recv(t, sub) {
		got = append(got, env.Offset)
		if len(got) == 15 {
			if n := srv.DropConnections(); n == 0 {
				t.Fatal("nothing to drop")
			}
		}
		if len(got) == 25 {
			// The live announcement rides the same socket as the stream;
			// wait for the server to process the post-reconnect re-announce
			// while the connection is still open, then publish the tail and
			// end the stream.
			fake.await(t, "sticky live announcement never re-sent after reconnect", func() bool { return fake.lives >= 1 })
			for i := 40; i < 60; i++ {
				fake.publish(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), TS: int64(i)})
			}
			fake.closeTopic()
		}
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription failed: %v", err)
	}
	if len(got) != 60 {
		t.Fatalf("received %d envelopes, want 60", len(got))
	}
	for i, off := range got {
		if off != uint64(i) {
			t.Fatalf("envelope %d has offset %d (duplicate or gap)", i, off)
		}
	}

	fake.mu.Lock()
	defer fake.mu.Unlock()
	if fake.attached[[2]int{0, 0}] < 2 {
		t.Errorf("attach count = %d, want >= 2 (reconnect)", fake.attached[[2]int{0, 0}])
	}
	if fake.lives < 1 {
		t.Errorf("live reports = %d, want >= 1 (sticky re-announce)", fake.lives)
	}
}

// TestFeedEOSSurvivesWorkerReports: a worker that keeps reporting while it
// reads the tail of a closed log slowly gets every envelope and the EOS. A
// hub that closed its end while frames were still queued for the worker
// would have its kernel answer the next report with a reset, discarding
// them; the hub lets the worker close first.
func TestFeedEOSSurvivesWorkerReports(t *testing.T) {
	const n = 1500
	fake := newFakeHub(11)
	for i := 0; i < n; i++ {
		fake.publish(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), TS: int64(i)})
	}
	fake.closeTopic()
	srv := testServer(t, fake)
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	nc.(*net.TCPConn).SetReadBuffer(4 << 10) // the worker reads slowly: frames queue on the hub
	c := newConn(nc, nil, nil)
	defer c.close()
	if _, err := nc.Write(connMagic[:]); err != nil {
		t.Fatal(err)
	}
	if err := c.writeMsg(encodeHelloFeed(helloFeed{floor: 1})); err != nil {
		t.Fatal(err)
	}
	if ack, err := c.readMsg(); err != nil || ack[0] != msgFeedAck {
		t.Fatalf("hello answered %v, %v", ack, err)
	}
	go func() {
		for floor := uint64(2); c.writeMsg(appendU1(nil, msgFloorReport, floor)) == nil; floor++ {
			time.Sleep(100 * time.Microsecond)
		}
	}()
	got := 0
	for {
		payload, err := c.readMsg()
		if err != nil {
			t.Fatalf("feed ended with %v after %d of %d envelopes, before its EOS", err, got, n)
		}
		if payload[0] == msgEOS {
			break
		}
		_, envs, err := decodeEnvBatch(wireCursor(payload[1:]), nil)
		if err != nil {
			t.Fatal(err)
		}
		got += len(envs)
		time.Sleep(time.Millisecond)
	}
	if got != n {
		t.Fatalf("EOS after %d envelopes, want %d", got, n)
	}
}

// TestFeedHelloCarriesFloorAndDetachIsScoped pins the two things a feed
// hello's attachment is for. The hello carries the replica's restore floor —
// on a reconnect, the floor as raised by reports since — so the hub can pin
// its truncation at the attach itself. And a connection's end closes exactly
// the attachment its own hello opened: when a second connection has attached
// the same slot meanwhile, the first one's detach must not name it.
func TestFeedHelloCarriesFloorAndDetachIsScoped(t *testing.T) {
	fake := newFakeHub(5)
	srv := testServer(t, fake)
	dial := func() (*FeedClient, *FeedSub) {
		fc, err := DialFeed(srv.Addr(), ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := fc.SubscribeReplica(0, 0, 0, 40, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fc, sub
	}

	fcA, subA := dial()
	defer fcA.Close()
	fake.await(t, "first hello never arrived", func() bool { return len(fake.hellos) == 1 })
	subA.ReportFloor(70)
	fake.await(t, "floor report never arrived", func() bool { return len(fake.floors) == 1 })
	srv.DropConnections()
	fake.await(t, "no re-attach after the drop", func() bool { return len(fake.hellos) == 2 && fake.detached == 1 })

	fcB, _ := dial()
	defer fcB.Close()
	fake.await(t, "second worker's hello never arrived", func() bool { return len(fake.hellos) == 3 })
	fcA.Close()
	fake.await(t, "first worker's detach never arrived", func() bool { return fake.detached == 2 })

	fake.mu.Lock()
	defer fake.mu.Unlock()
	if want := []uint64{40, 70, 40}; !slices.Equal(fake.hellos, want) {
		t.Errorf("hello floors = %v, want %v (restore floor, raised floor on reconnect, restore floor)", fake.hellos, want)
	}
	if want := []int{0, 1}; !slices.Equal(fake.closedBy, want) {
		t.Errorf("detaches ended hellos %v, want %v: each connection closes the attachment it opened", fake.closedBy, want)
	}
}

// TestOldProtocolVersionRefused: an older peer — version 1, whose feed hello
// has no floor field, or version 2, whose hello carries a read address and
// which expects the hub to dial back for reads — fails the preamble check
// and gets no reply: refused, not misparsed.
func TestOldProtocolVersionRefused(t *testing.T) {
	fake := newFakeHub(5)
	srv := testServer(t, fake)
	for _, version := range []byte{1, 2} {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		old := connMagic
		old[7] = version
		nc.Write(old[:])
		writeFrame(nc, encodeHelloFeed(helloFeed{resume: 9}))
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := nc.Read(make([]byte, 16)); err == nil {
			t.Fatalf("server answered a version-%d preamble with %d bytes", version, n)
		}
		nc.Close()
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	if len(fake.hellos) != 0 {
		t.Fatal("an old-version hello reached the backend")
	}
}

// TestCandForwarderTornWrite arms a codecutil.FailNth on the forwarder's
// first connection so a frame tears mid-write on the socket — the wire
// twin of a machine dying mid-push. The server must never see a corrupt
// batch (CRC), and the reconnect must resend unacked frames so every
// message still arrives, in order, exactly once.
func TestCandForwarderTornWrite(t *testing.T) {
	fake := newFakeHub(9)
	srv := testServer(t, fake)

	reg := metrics.NewRegistry()
	var dials int
	var mu sync.Mutex
	fw := NewCandForwarder(srv.Addr(), 9, ClientOptions{
		Metrics: reg,
		WrapWriter: func(w codecutil.WriteSyncCloser) codecutil.WriteSyncCloser {
			mu.Lock()
			defer mu.Unlock()
			dials++
			if dials == 1 {
				// Write 1 is the hello; tear the 3rd (the second batch).
				return &codecutil.FailNth{F: w, FailWriteAt: 3}
			}
			return w
		},
	})
	defer fw.Close()

	const batches = 6
	for i := 0; i < batches; i++ {
		msg := CandMsg{Pid: 0, Offset: uint64(i), PubNS: int64(i), Cands: []motif.Candidate{{
			User: graph.VertexID(i), Item: graph.VertexID(1000 + i), Program: "diamond",
		}}}
		if err := fw.Offer(msg); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// The first message lands as a frame of its own, so the torn
			// write is a candidate frame and not the FIN of a stream the
			// writer coalesced whole.
			fake.await(t, "first frame never delivered", func() bool { return fake.rawCands == 1 })
		}
	}
	if err := fw.Finish(nil, 10*time.Second); err != nil {
		t.Fatalf("forwarder did not finish: %v", err)
	}

	fake.mu.Lock()
	defer fake.mu.Unlock()
	seen := map[uint64]int{}
	last := -1
	for _, m := range fake.cands {
		seen[m.Offset]++
		if int(m.Offset) <= last {
			t.Fatalf("offset %d delivered after %d (out of order)", m.Offset, last)
		}
		last = int(m.Offset)
	}
	for i := uint64(0); i < batches; i++ {
		if seen[i] != 1 {
			t.Errorf("offset %d delivered %d times", i, seen[i])
		}
	}
	if reg.Counter("transport.reconnects").Value() == 0 {
		t.Error("no reconnect recorded despite the torn write")
	}
}

// TestCandForwarderConcurrentOffer is the forwarder as a worker uses it:
// several apply loops offering at once, at the window bound most of the time,
// through a connection drop. Every message must reach the backend exactly
// once in per-producer order, and the checkpoint gate must be a snapshot: a
// WaitDrained taken mid-stream returns once everything offered before it is
// acked, while the producers — which never pause — keep the total moving. (A
// gate that chased the total could not return before they ran dry: at the
// bound, something is unacked at every instant.)
func TestCandForwarderConcurrentOffer(t *testing.T) {
	fake := newFakeHub(4)
	srv := testServer(t, fake)
	reg := metrics.NewRegistry()
	fw := NewCandForwarder(srv.Addr(), 4, ClientOptions{Metrics: reg})
	defer fw.Close()

	const producers, perProducer = 4, 50_000
	var sent [producers]atomic.Int64
	total := func() (n int64) {
		for p := range sent {
			n += sent[p].Load()
		}
		return n
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := fw.Offer(CandMsg{Pid: p, Offset: uint64(i)}); err != nil {
					t.Errorf("producer %d offer %d: %v", p, i, err)
					return
				}
				sent[p].Add(1)
			}
		}(p)
	}
	fake.await(t, "stream never got going", func() bool { return fake.rawCands >= forwarderWindow })
	if srv.DropConnections() == 0 {
		t.Fatal("nothing to drop")
	}
	for deadline := time.Now().Add(10 * time.Second); total() < 2*forwarderWindow; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("producers stalled at %d offers", total())
		}
	}
	var before [producers]int64
	for p := range sent {
		before[p] = sent[p].Load()
	}
	if !fw.WaitDrained(10 * time.Second) {
		t.Fatal("gate never opened under concurrent offers")
	}
	if total() == producers*perProducer {
		t.Error("gate opened only once the producers had run dry: it chased the total")
	}
	fake.mu.Lock()
	for p, n := range before {
		if got, ok := fake.floor2[p]; n > 0 && (!ok || got+1 < uint64(n)) {
			t.Errorf("gate opened with producer %d delivered below %d of the %d offered before it", p, got+1, n)
		}
	}
	fake.mu.Unlock()

	close(stop)
	wg.Wait()
	if err := fw.Finish(nil, 10*time.Second); err != nil {
		t.Fatalf("forwarder did not finish: %v", err)
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	var next [producers]uint64
	for _, m := range fake.cands {
		if m.Offset != next[m.Pid] {
			t.Fatalf("producer %d: offset %d delivered where %d was due (lost or reordered)", m.Pid, m.Offset, next[m.Pid])
		}
		next[m.Pid]++
	}
	for p := range sent {
		if next[p] != uint64(sent[p].Load()) {
			t.Errorf("producer %d: %d of %d offers delivered", p, next[p], sent[p].Load())
		}
	}
	if reg.Counter("transport.reconnects").Value() == 0 {
		t.Error("no reconnect recorded despite the drop")
	}
}

// TestCandForwarderAbortReleasesBlockedOffers: against a hub that acks
// nothing the producers fill the window and block at its bound; Abort must
// fail every one of them (and every later Offer) rather than strand an apply
// loop in a call that can never return.
func TestCandForwarderAbortReleasesBlockedOffers(t *testing.T) {
	fake := newFakeHub(6)
	fake.hold = make(chan struct{})
	srv := testServer(t, fake)
	t.Cleanup(func() { close(fake.hold) }) // before srv.Close, which waits for the parked handler
	fw := NewCandForwarder(srv.Addr(), 6, ClientOptions{})

	const producers = 4
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			for i := 0; ; i++ {
				if err := fw.Offer(CandMsg{Pid: p, Offset: uint64(i)}); err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		fw.mu.Lock()
		full := fw.offered-fw.acked == forwarderWindow
		fw.mu.Unlock()
		if full {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("window never filled")
		}
	}
	if fw.WaitDrained(20 * time.Millisecond) {
		t.Fatal("gate open with a full window unacked")
	}
	fw.Abort()
	for p := 0; p < producers; p++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("blocked Offer returned without an error")
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d producers still blocked after Abort", producers-p, producers)
		}
	}
	if fw.Offer(CandMsg{}) == nil {
		t.Error("Offer accepted after Abort")
	}
	if fw.WaitDrained(time.Second) {
		t.Error("gate open after Abort dropped a full window")
	}
}

// TestCandForwarderRingReleasesAckedFrames: a frame the hub has acked leaves
// the forwarder for good. Frames pile up unacked behind a parked hub, then
// all are acked; after Finish no slot of the ring's backing array holds a
// frame — the slots before the live entries included, which popping by
// reslicing would keep alive until an append happened to reallocate.
func TestCandForwarderRingReleasesAckedFrames(t *testing.T) {
	fake := newFakeHub(8)
	fake.hold = make(chan struct{})
	srv := testServer(t, fake)
	var once sync.Once
	release := func() { once.Do(func() { close(fake.hold) }) }
	t.Cleanup(release) // before srv.Close, which waits for the parked handler
	fw := NewCandForwarder(srv.Addr(), 8, ClientOptions{})
	defer fw.Close()
	framed := func() bool {
		fw.mu.Lock()
		defer fw.mu.Unlock()
		return len(fw.pending) == 0 && fw.unsent == 0
	}

	const frames = 6
	for i := 0; i < frames; i++ {
		if err := fw.Offer(CandMsg{Pid: 0, Offset: uint64(i), Cands: []motif.Candidate{{User: 1, Item: graph.VertexID(i), Program: "diamond"}}}); err != nil {
			t.Fatal(err)
		}
		// One frame per message: wait until the writer has framed and sent it.
		for deadline := time.Now().Add(10 * time.Second); !framed(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("message %d never framed", i)
			}
		}
	}
	fw.mu.Lock()
	backing := fw.ring[:cap(fw.ring)]
	held := len(fw.ring)
	fw.mu.Unlock()
	if held != frames {
		t.Fatalf("%d frames in the ring behind a parked hub, want %d", held, frames)
	}

	release()
	if err := fw.Finish(nil, 10*time.Second); err != nil {
		t.Fatalf("forwarder did not finish: %v", err)
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	for i, e := range fw.ring[:cap(fw.ring)] {
		if e.frame != nil {
			t.Errorf("ring slot %d holds frame %d after every frame was acked", i, e.seq)
		}
	}
	for i, e := range backing {
		if e.frame != nil {
			t.Errorf("slot %d of the ring's backing array holds acked frame %d", i, e.seq)
		}
	}
}

// TestCandFinNamesFinishedSlots: a worker's FIN names each slot whose feed
// finished, with the floor reported after its connection closed, which only
// the FIN can carry; the hub hands the slots to its backend before it acks
// the FIN, so Finish returns only once the backend has them.
func TestCandFinNamesFinishedSlots(t *testing.T) {
	fake := newFakeHub(3)
	fake.hold = make(chan struct{})
	fake.publish(graph.Edge{Src: 1, Dst: 2})
	srv := testServer(t, fake)
	fc, err := DialFeed(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := fc.SubscribeReplica(0, 1, 2, 10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fake.await(t, "feed never attached", func() bool { return fake.attached[[2]int{0, 1}] == 1 })
	fake.closeTopic()
	for _, ok := recv(t, sub); ok; _, ok = recv(t, sub) {
	}
	fc.Close()
	sub.ReportFloor(40)

	time.AfterFunc(50*time.Millisecond, func() { close(fake.hold) })
	fw := NewCandForwarder(srv.Addr(), 3, ClientOptions{})
	defer fw.Close()
	if err := fw.Offer(CandMsg{Pid: 0, Offset: 0}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Finish([]*FeedSub{sub}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	if want := []helloFeed{{pid: 0, r: 1, gen: 2, floor: 40}}; !slices.Equal(fake.finished, want) {
		t.Fatalf("backend had %+v when the FIN's ack arrived, want %+v", fake.finished, want)
	}
	if len(fake.cands) != 1 {
		t.Fatalf("cands = %+v", fake.cands)
	}
}

// closingHub closes its server from a FIN's first ReplicaFinished, as the
// hub's drain does once the last slot it waited for has finished.
type closingHub struct {
	*fakeHub
	srv atomic.Pointer[Server]
}

func (h *closingHub) ReplicaFinished(pid, r, gen int, floor uint64) {
	go h.srv.Load().Close()
	time.Sleep(50 * time.Millisecond) // Close has severed what it tracks
	h.fakeHub.ReplicaFinished(pid, r, gen, floor)
}

// TestCandFinAckOutlivesServerClose: a server closed on account of a FIN's
// slots still acks that FIN, so the worker's Finish succeeds.
func TestCandFinAckOutlivesServerClose(t *testing.T) {
	h := &closingHub{fakeHub: newFakeHub(3)}
	srv := testServer(t, h)
	h.srv.Store(srv)
	fw := NewCandForwarder(srv.Addr(), 3, ClientOptions{})
	defer fw.Close()
	if err := fw.Finish([]*FeedSub{{pid: 1}}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.finished) != 1 {
		t.Fatalf("finished = %+v", h.finished)
	}
}

// TestFramePartialReads feeds two frames through a one-byte-at-a-time
// reader: short reads must resume, not corrupt or fail.
func TestFramePartialReads(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("first frame"), encodeEnvBatch(nil, logMeta{1, 2, 3}, []queue.Envelope[graph.Edge]{{Offset: 9}})}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := iotest.OneByteReader(&buf)
	for i, want := range payloads {
		got, err := codecutil.ReadFrame(r, nil, maxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d payload mismatch", i)
		}
	}
}

// TestFrameOversized rejects a header claiming more than maxFrame before
// allocating.
func TestFrameOversized(t *testing.T) {
	var hdr [codecutil.FrameHeaderLen]byte
	huge := make([]byte, 8)
	codecutil.EncodeFrameHeader(hdr[:], huge)
	// Rewrite the length field to a hostile claim, keeping the real CRC.
	var buf bytes.Buffer
	writeFrame(&buf, huge)
	b := buf.Bytes()
	b[0], b[1], b[2], b[3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := codecutil.ReadFrame(bytes.NewReader(b), nil, maxFrame); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestFramePrefixesAndBitFlipsRejected is the exhaustive companion of
// FuzzTransportFrame for one candidate batch: no strict prefix of the frame
// and no single-bit flip of it reads back as an intact frame, and no strict
// prefix of the payload decodes as a message.
func TestFramePrefixesAndBitFlipsRejected(t *testing.T) {
	payload := appendCandBatch(nil, 3, []CandMsg{{Pid: 1, Offset: 2, PubNS: 3, Cands: []motif.Candidate{
		{User: 5, Item: 6, Via: []graph.VertexID{7, 8}, Program: "diamond", Score: 1.5},
		{User: 5, Item: 9, Via: []graph.VertexID{7}, Program: "diamond", Score: 1},
	}}})
	var fb bytes.Buffer
	if err := writeFrame(&fb, payload); err != nil {
		t.Fatal(err)
	}
	frame := fb.Bytes()
	if got, err := codecutil.ReadFrame(bytes.NewReader(frame), nil, maxFrame); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("pristine frame: %v", err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, err := codecutil.ReadFrame(bytes.NewReader(frame[:cut]), nil, maxFrame); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte frame read as intact", cut, len(frame))
		}
	}
	mut := bytes.Clone(frame)
	for bit := 0; bit < 8*len(frame); bit++ {
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := codecutil.ReadFrame(bytes.NewReader(mut), nil, maxFrame); err == nil {
			t.Fatalf("frame with bit %d flipped read as intact", bit)
		}
		mut[bit/8] ^= 1 << (bit % 8)
	}
	if _, msgs, err := decodeCandBatch(wireCursor(payload[1:]), newCandDecoder()); err != nil || len(msgs) != 1 || len(msgs[0].Cands) != 2 {
		t.Fatalf("pristine payload: %v, %+v", err, msgs)
	}
	for cut := 1; cut < len(payload); cut++ {
		if _, _, err := decodeCandBatch(wireCursor(payload[1:cut]), newCandDecoder()); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte candidate batch decoded", cut, len(payload))
		}
	}

	// The feed hello: every field survives the round trip — the restore
	// floor distinct from the resume offset — and no strict prefix decodes.
	want := helloFeed{pid: 1, r: 2, gen: 3, floor: 300, resume: 4000}
	hello := encodeHelloFeed(want)
	wr := wireCursor(hello[1:])
	if got := decodeHelloFeed(wr); wr.Err != nil || got != want {
		t.Fatalf("hello round trip: %+v, %v", got, wr.Err)
	}
	for cut := 1; cut < len(hello); cut++ {
		wr := wireCursor(hello[1:cut])
		if decodeHelloFeed(wr); wr.Err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte feed hello decoded", cut, len(hello))
		}
	}
}

// FuzzTransportFrame exercises the full wire surface with hostile bytes:
// framing (truncated, bit-flipped, oversized) and every message decoder.
// Nothing may panic; valid frames must round-trip intact.
func FuzzTransportFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{msgEOS})
	f.Add(encodeHelloFeed(helloFeed{pid: 1, r: 2, gen: 3, floor: 300, resume: 4000}))
	f.Add(encodeEnvBatch(nil, logMeta{7, 100, 5}, []queue.Envelope[graph.Edge]{
		{Offset: 9, PubUnixNS: 123, Msg: graph.Edge{Src: 1, Dst: 2, Type: graph.Follow, TS: 42}},
	}))
	f.Add(appendCandBatch(nil, 3, []CandMsg{{Pid: 1, Offset: 2, PubNS: 3, Cands: []motif.Candidate{
		{User: 5, Item: 6, Via: []graph.VertexID{7, 8}, Program: "diamond", Score: 1.5},
	}}}))
	f.Add(encodeRecsResp(2, []motif.Candidate{{User: 1, Item: 2}}))
	f.Add(encodeTopResp(4, []partition.ItemCount{{Item: 3, Count: 9}}))
	f.Add(encodeHelloErr("nope"))
	f.Add(encodeCandFin([]helloFeed{{pid: 1, r: 2, gen: 3, floor: 300, resume: 4000}, {}}))
	for _, frame := range readFrames() {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw bytes as a frame stream: must error or yield payloads, never
		// panic, never allocate past maxFrame.
		r := bytes.NewReader(data)
		var buf []byte
		for {
			p, err := codecutil.ReadFrame(r, buf, maxFrame)
			if err != nil {
				break
			}
			buf = p[:cap(p)]
		}

		// Raw bytes as each message payload: decoders must never panic.
		decodeHelloFeed(wireCursor(data))
		decodeLogMeta(wireCursor(data))
		decodeEnvBatch(wireCursor(data), nil)
		decodeCandBatch(wireCursor(data), newCandDecoder())
		decodeCandFin(wireCursor(data))
		decodeReadReq(wireCursor(data))
		decodeRecsResp(wireCursor(data))
		decodeTopResp(wireCursor(data))
		wireCursor(data).String("fuzz", 1<<16)

		// A well-formed frame around the bytes must round-trip (zero-length
		// payloads are rejected by design); the same frame with a flipped
		// bit must never be accepted as intact.
		if len(data) == 0 {
			return
		}
		var fb bytes.Buffer
		if err := writeFrame(&fb, data); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		framed := fb.Bytes()
		got, err := codecutil.ReadFrame(bytes.NewReader(framed), nil, maxFrame)
		if err != nil {
			t.Fatalf("ReadFrame round-trip: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("frame payload mutated in round-trip")
		}
		if len(data) > 0 {
			flip := append([]byte(nil), framed...)
			flip[codecutil.FrameHeaderLen+int(data[0])%len(data)] ^= 0x40
			if p, err := codecutil.ReadFrame(bytes.NewReader(flip), nil, maxFrame); err == nil && bytes.Equal(p, data) {
				t.Fatal("bit-flipped frame read back as intact")
			}
		}

		// Truncations of a valid frame must error, never panic or succeed.
		if cut := len(framed) / 2; cut < len(framed) {
			if _, err := codecutil.ReadFrame(bytes.NewReader(framed[:cut]), nil, maxFrame); err == nil {
				t.Fatal("truncated frame accepted")
			}
		}
	})
}
