// Package queue provides the in-process message fabric the cluster runs
// on: fan-out pub/sub Topics with per-subscriber backpressure, and — for
// topics built with Retain — an offset-addressable retained log supporting
// replay.
//
// The paper reports that "nearly all the latency comes from event
// propagation delays in various message queues" (7s median, 15s p99
// end-to-end) "while the actual graph queries take only a few
// milliseconds". A Topic does not simulate that delay: it carries, unchanged
// and identically to every subscriber and every replay, whatever simulated
// delay its publisher hands to Publish. The models experiment E2 draws the
// delay from (see DelayModel) live here only because every tier imports
// this package; the cluster's hub tier samples them, once per hop per event.
//
// Offsets are the durability currency of the whole system: every
// published message is stamped with its position in the topic's publish
// sequence, consumers checkpoint the offsets they have applied, and a
// recovering consumer resumes with SubscribeFrom(offset), which replays
// the retained log and hands off to live delivery with no gap and no
// duplicate. TruncateBelow implements log compaction: once every consumer
// has a durable checkpoint at or above an offset, the prefix below it can
// be dropped, bounding the retained log's memory. See docs/DURABILITY.md
// for the full offset-semantics contract.
package queue

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Envelope wraps a message crossing a queue. VirtualDelay is the simulated
// propagation delay the publisher attributed to the message — the carried
// argument of Publish, verbatim, the same on every subscriber's copy and on
// every replay; downstream stages add it to processing time to compute
// end-to-end latency without sleeping. Offset is the message's position in the topic's publish
// sequence; consumers that checkpoint their progress record it so a
// restarted consumer can resume with SubscribeFrom. PubUnixNS is the
// wall-clock time (UnixNano) the message was first published; replayed
// envelopes carry zero so recovery traffic never pollutes wall-clock
// latency measurements with replay lag.
type Envelope[T any] struct {
	Msg          T
	VirtualDelay time.Duration
	Offset       uint64
	PubUnixNS    int64
}

// ErrClosed is returned by Publish after Close.
var ErrClosed = errors.New("queue: closed")

// ErrNotRetained is returned by SubscribeFrom on a topic built without
// Retain: replay needs the log.
var ErrNotRetained = errors.New("queue: topic does not retain its log")

// ErrTruncated is wrapped by SubscribeFrom errors when the requested
// offset has been compacted away by TruncateBelow: the caller's
// checkpoint predates the retained log and cannot be replayed.
var ErrTruncated = errors.New("queue: offset below truncated log start")

// subscriber is one consumer endpoint. done is closed by Unsubscribe; a
// publisher blocked sending into a full ch selects on done so tearing down
// a dead consumer can never wedge the topic.
type subscriber[T any] struct {
	ch   chan Envelope[T]
	done chan struct{}
}

// Record is one retained log entry of a Retain topic. The carried delay is
// stored so a replayed copy reports the same simulated delay as the
// original.
type Record[T any] struct {
	Msg     T
	Carried time.Duration
}

// LogBackend is the storage engine behind a Retain topic's
// offset-addressable log. The built-in in-memory backend dies with the
// process (checkpoint offsets are then only meaningful within one run);
// the disk-backed WAL survives it, which is what makes whole-cluster
// restarts recoverable. Implementations are safe for concurrent use; the
// topic guarantees Append calls are serialized (its publish lock) and
// always at offset End().
type LogBackend[T any] interface {
	// Append stores rec at offset End(), advancing End by one.
	Append(rec Record[T]) error
	// Read copies up to len(dst) records starting at offset from into dst,
	// returning how many it copied: zero at or beyond End. Reading below
	// Start returns an error wrapping ErrTruncated.
	Read(from uint64, dst []Record[T]) (int, error)
	// Start is the oldest retained offset (the replay horizon).
	Start() uint64
	// End is the offset one past the newest record — the next Append's.
	End() uint64
	// TruncateBelow drops retained records below the offset, as far as the
	// backend's granularity allows (the WAL deletes whole segments, so it
	// may retain a little extra), and returns the new Start.
	TruncateBelow(offset uint64) uint64
	// Close releases the backend, flushing anything buffered durably.
	Close() error
}

// memLog is the in-memory LogBackend: a slice indexed by offset - start.
// It preserves the exact pre-backend Topic semantics, including
// byte-granular truncation.
type memLog[T any] struct {
	mu    sync.Mutex
	log   []Record[T]
	start uint64
}

func (m *memLog[T]) Append(rec Record[T]) error {
	m.mu.Lock()
	m.log = append(m.log, rec)
	m.mu.Unlock()
	return nil
}

func (m *memLog[T]) Read(from uint64, dst []Record[T]) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if from < m.start {
		return 0, fmt.Errorf("queue: read offset %d below log start %d: %w", from, m.start, ErrTruncated)
	}
	end := m.start + uint64(len(m.log))
	if from >= end {
		return 0, nil
	}
	n := copy(dst, m.log[from-m.start:])
	return n, nil
}

func (m *memLog[T]) Start() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.start
}

func (m *memLog[T]) End() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.start + uint64(len(m.log))
}

func (m *memLog[T]) TruncateBelow(offset uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.start + uint64(len(m.log))
	if offset > end {
		offset = end
	}
	if offset <= m.start {
		return m.start
	}
	kept := m.log[offset-m.start:]
	// Reallocate rather than reslice so the dropped prefix's memory is
	// actually reclaimable.
	m.log = append(make([]Record[T], 0, len(kept)), kept...)
	m.start = offset
	return m.start
}

func (m *memLog[T]) Close() error { return nil }

// Topic is a fan-out pub/sub queue: every subscriber receives every
// message, matching the paper's design in which "every partition needs to
// handle the entire stream of edge creation events". Publish blocks when a
// subscriber's buffer is full (backpressure). With Retain set, the topic
// additionally keeps every published message in an offset-addressable
// in-memory log so a recovering consumer can replay from a checkpointed
// offset via SubscribeFrom. Safe for concurrent use.
type Topic[T any] struct {
	name    string
	buf     int
	retain  bool
	ordered bool

	// pubMu serializes publishers on ordered (and all retained) topics so
	// offset order equals every subscriber's delivery order — the
	// invariant both replay and any consumer-side offset sequencing
	// depend on. Unordered topics skip it: their consumers only need
	// per-publisher FIFO, which channel sends already give, and keeping
	// publishers independent avoids head-of-line blocking when one
	// subscriber's buffer is full. mu guards the mutable state below; it
	// is never held across a channel send, and — so a disk-backed log
	// cannot stall subscribes and replay hand-offs behind an fsync — never
	// across a backend call either: the retained append happens under
	// pubMu alone, before the publish becomes visible via published.
	pubMu sync.Mutex
	mu    sync.Mutex

	subs   []*subscriber[T]
	byCh   map[<-chan Envelope[T]]*subscriber[T]
	closed bool

	// backend stores the retained log of a Retain topic (nil otherwise).
	// Appends are ordered by pubMu; the backend synchronizes its own reads
	// against them.
	backend LogBackend[T]

	// published is the next offset to assign. On retained topics it
	// resumes from the backend's durable end at construction, so offsets
	// stay meaningful across a process restart.
	published uint64
}

// Options configures a Topic: its label, its backpressure bound and its
// ordering and retention guarantees. Nothing here shapes simulated delay —
// that is the publisher's argument to Publish.
type Options struct {
	// Name labels the topic in stats.
	Name string
	// Buffer is each subscriber's channel capacity; 0 selects 1024.
	Buffer int
	// Retain keeps every published message in an in-memory log,
	// addressable by offset, enabling SubscribeFrom replay. Deployments
	// that checkpoint consumers bound the log with TruncateBelow once a
	// prefix can no longer be replayed from. Retain implies Ordered.
	Retain bool
	// Ordered serializes concurrent publishers so every subscriber
	// observes envelopes in offset order. Required when consumers
	// sequence on Envelope.Offset across publishers; costs head-of-line
	// blocking under backpressure.
	Ordered bool
}

// NewTopic creates a Topic. With Retain set the log lives in the built-in
// in-memory backend; use NewTopicWithLog to supply a durable one.
func NewTopic[T any](opts Options) *Topic[T] {
	return NewTopicWithLog[T](opts, nil)
}

// NewTopicWithLog creates a Topic whose retained log is stored in the
// given backend; non-nil implies Retain (and therefore Ordered). Pass an
// opened WAL to make the log durable: offsets then survive the process,
// and the topic resumes publishing from the backend's end. The topic does
// not take ownership — the caller closes a durable backend itself, after
// the topic's consumers (including replayers) have drained.
func NewTopicWithLog[T any](opts Options, backend LogBackend[T]) *Topic[T] {
	b := opts.Buffer
	if b <= 0 {
		b = 1024
	}
	retain := opts.Retain || backend != nil
	if retain && backend == nil {
		backend = &memLog[T]{}
	}
	t := &Topic[T]{
		name:    opts.Name,
		buf:     b,
		retain:  retain,
		ordered: opts.Ordered || retain,
		backend: backend,
		byCh:    map[<-chan Envelope[T]]*subscriber[T]{},
	}
	if backend != nil {
		// A durable backend may already hold a previous run's log: resume
		// the offset sequence where it left off.
		t.published = backend.End()
	}
	return t
}

// Subscribe registers a new consumer and returns its channel. The channel
// is closed when the topic closes. Subscriptions made after publishing
// begins miss earlier messages, as with any broker; use SubscribeFrom to
// replay retained history.
func (t *Topic[T]) Subscribe() <-chan Envelope[T] {
	t.mu.Lock()
	defer t.mu.Unlock()
	sub := &subscriber[T]{
		ch:   make(chan Envelope[T], t.buf),
		done: make(chan struct{}),
	}
	if t.closed {
		close(sub.ch)
		return sub.ch
	}
	t.subs = append(t.subs, sub)
	t.byCh[sub.ch] = sub
	return sub.ch
}

// SubscribeFrom registers a consumer that first replays the retained log
// starting at offset and then, once caught up with the head, seamlessly
// switches to live delivery with no gap and no duplicate: the replay
// goroutine registers the live subscription under the same lock that
// checks it has drained the log, so a concurrent Publish either lands in
// the log before the check or fans out to the new subscription after it.
// On a closed topic the retained suffix is still replayed, then the
// channel closes. Returns ErrNotRetained if the topic keeps no log and an
// error if offset is beyond the current head.
func (t *Topic[T]) SubscribeFrom(offset uint64) (<-chan Envelope[T], error) {
	if !t.retain {
		return nil, ErrNotRetained
	}
	// Validate against the replay horizon before registering. The check is
	// made outside mu (the backend synchronizes itself); a truncation
	// racing past it is caught again inside the replay loop.
	if start := t.backend.Start(); offset < start {
		return nil, fmt.Errorf("queue: replay offset %d below log start %d: %w", offset, start, ErrTruncated)
	}
	t.mu.Lock()
	if offset > t.published {
		head := t.published
		t.mu.Unlock()
		return nil, fmt.Errorf("queue: replay offset %d beyond head %d", offset, head)
	}
	sub := &subscriber[T]{
		ch:   make(chan Envelope[T], t.buf),
		done: make(chan struct{}),
	}
	t.byCh[sub.ch] = sub
	t.mu.Unlock()

	go t.replay(sub, offset)
	return sub.ch, nil
}

// replay streams log entries from next to the head, then promotes sub to a
// live subscriber (or closes it if the topic closed meanwhile). Backend
// reads happen outside mu: the head check and the live registration are
// the only steps that need it, so a disk-backed log never stalls other
// subscribers behind replay I/O.
func (t *Topic[T]) replay(sub *subscriber[T], next uint64) {
	const chunk = 256
	buf := make([]Record[T], chunk)
	for {
		t.mu.Lock()
		if t.unsubscribedLocked(sub) {
			t.mu.Unlock()
			return
		}
		head := t.published
		if next >= head {
			// Caught up. Anything published from here on fans out to the
			// registered subscription, so the hand-off loses nothing: a
			// concurrent Publish either advanced published before the
			// check (and is read from the backend next loop) or registers
			// after it and sends to the live subscription.
			if t.closed {
				delete(t.byCh, sub.ch)
				t.mu.Unlock()
				close(sub.ch)
				return
			}
			t.subs = append(t.subs, sub)
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
		want := head - next
		if want > chunk {
			want = chunk
		}
		n, err := t.backend.Read(next, buf[:want])
		if err != nil || n == 0 {
			// The prefix this replayer still needed was truncated out from
			// under it (or the backend failed). The cluster's compaction
			// floor (minimum durable checkpoint offset) makes truncation
			// unreachable here; if a caller breaks that contract, fail
			// loudly by closing the channel rather than silently skipping
			// events.
			t.mu.Lock()
			delete(t.byCh, sub.ch)
			t.mu.Unlock()
			close(sub.ch)
			return
		}
		for i, r := range buf[:n] {
			env := Envelope[T]{
				Msg:          r.Msg,
				VirtualDelay: r.Carried,
				Offset:       next + uint64(i),
			}
			select {
			case sub.ch <- env:
			case <-sub.done:
				return
			}
		}
		next += uint64(n)
	}
}

// unsubscribedLocked reports whether Unsubscribe has already detached sub.
func (t *Topic[T]) unsubscribedLocked(sub *subscriber[T]) bool {
	select {
	case <-sub.done:
		return true
	default:
		return false
	}
}

// Publish delivers msg to every subscriber, stamping each copy with the
// publish offset and with carried — the simulated delay the publisher
// attributes to the message — as its VirtualDelay. Returns ErrClosed after Close,
// and surfaces retained-append failures from a durable log backend.
func (t *Topic[T]) Publish(msg T, carried time.Duration) error {
	if t.ordered {
		t.pubMu.Lock()
		defer t.pubMu.Unlock()
	}
	if t.backend != nil {
		// Retained path. The append runs under pubMu alone — mu is held
		// only for the brief bookkeeping on either side — so a slow disk
		// (a WAL fsync batch) back-pressures publishers without stalling
		// Subscribe, replay hand-offs, or stats reads behind file I/O.
		// Ordering: the record lands in the backend before published
		// advances, so any replayer that observes the offset can read it.
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return ErrClosed
		}
		off := t.published
		t.mu.Unlock()
		if err := t.backend.Append(Record[T]{Msg: msg, Carried: carried}); err != nil {
			return fmt.Errorf("queue: %s: retained append: %w", t.name, err)
		}
		t.mu.Lock()
		t.published++
		subs := t.subs
		t.mu.Unlock()
		t.fanOut(subs, msg, carried, off)
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	off := t.published
	t.published++
	subs := t.subs
	t.mu.Unlock()
	t.fanOut(subs, msg, carried, off)
	return nil
}

// fanOut sends the same envelope to every subscriber; one mid-Unsubscribe
// is skipped via done. The publish wall-clock time is taken once.
func (t *Topic[T]) fanOut(subs []*subscriber[T], msg T, carried time.Duration, off uint64) {
	env := Envelope[T]{
		Msg:          msg,
		VirtualDelay: carried,
		Offset:       off,
		PubUnixNS:    time.Now().UnixNano(),
	}
	for _, s := range subs {
		select {
		case s.ch <- env:
		case <-s.done:
		}
	}
}

// Unsubscribe detaches the given subscription without closing its channel:
// the topic stops feeding it and any publisher blocked on its full buffer
// is released immediately. This is how a crashed consumer is torn down —
// messages still buffered in the channel are simply lost, as they would be
// with a dead process. No-op for channels the topic does not know.
func (t *Topic[T]) Unsubscribe(ch <-chan Envelope[T]) {
	t.mu.Lock()
	sub, ok := t.byCh[ch]
	if !ok {
		t.mu.Unlock()
		return
	}
	delete(t.byCh, ch)
	// Copy-on-write: Publish iterates a snapshot of t.subs outside the
	// lock, so removal must build a fresh slice rather than shift in place.
	keep := make([]*subscriber[T], 0, len(t.subs))
	for _, s := range t.subs {
		if s != sub {
			keep = append(keep, s)
		}
	}
	t.subs = keep
	t.mu.Unlock()
	close(sub.done)
}

// Close closes all subscriber channels. Publish afterwards fails. Taking
// pubMu first waits out any in-flight Publish fan-out on ordered topics
// so no send can race the channel close; for unordered topics the
// caller must stop publishers before closing (the cluster closes each
// topic only after the goroutines feeding it have drained).
func (t *Topic[T]) Close() {
	t.pubMu.Lock()
	defer t.pubMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	for _, s := range t.subs {
		delete(t.byCh, s.ch)
		close(s.ch)
	}
	t.subs = nil
}

// Published returns the number of accepted Publish calls — equivalently,
// the offset the next published message will receive, one past the newest
// retained entry. A recovering consumer that has applied every envelope
// with Offset < Published() is caught up.
func (t *Topic[T]) Published() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.published
}

// TruncateBelow drops retained log entries below the given offset — log
// compaction — as far as the backend's granularity allows (the in-memory
// backend is entry-exact; the disk WAL deletes whole segments and may
// retain a little extra). The caller is responsible for the safety
// argument: no consumer may ever need to replay from below the new start
// (the cluster truncates below the minimum durable checkpoint offset
// across replicas, which every possible restore point is at or above).
// Offsets beyond the head are clamped; calls at or below the current
// start are no-ops. Returns the number of entries dropped.
func (t *Topic[T]) TruncateBelow(offset uint64) int {
	if t.backend == nil {
		return 0
	}
	t.mu.Lock()
	if offset > t.published {
		offset = t.published
	}
	t.mu.Unlock()
	before := t.backend.Start()
	after := t.backend.TruncateBelow(offset)
	return int(after - before)
}

// LogStart returns the offset of the oldest retained log entry — the
// replay horizon after compaction. Zero until the first TruncateBelow
// (or, for a reopened durable log, whatever a previous run truncated to).
func (t *Topic[T]) LogStart() uint64 {
	if t.backend == nil {
		return 0
	}
	return t.backend.Start()
}

// Name returns the topic label.
func (t *Topic[T]) Name() string { return t.name }
