// Package queue provides the in-process message fabric the cluster runs
// on: fan-out pub/sub Topics with per-subscriber backpressure, and — for
// topics built over a LogBackend — an offset-addressable retained log
// supporting replay. It simulates nothing: the paper's queue-propagation
// delay (7s median, 15s p99 end-to-end) is a function of the seed and an
// event's offset, which the cluster's delivery loop derives where it spends
// it, so no envelope, record or log byte carries one.
//
// Offsets are the durability currency of the whole system: every
// published message is stamped with its position in the topic's publish
// sequence, consumers checkpoint the offsets they have applied, and a
// recovering consumer resumes with SubscribeFrom(offset), which replays
// the retained log and hands off to live delivery with no gap and no
// duplicate. TruncateBelow implements log compaction: once every consumer
// has a durable checkpoint at or above an offset, the prefix below it can
// be dropped, bounding the retained log's size. See docs/DURABILITY.md
// for the full offset-semantics contract.
package queue

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Envelope wraps a message crossing a queue. Offset is the message's
// position in the topic's publish sequence; consumers that checkpoint their
// progress record it so a restarted consumer can resume with SubscribeFrom.
// PubUnixNS is the wall-clock time (UnixNano) the message was first
// published; replayed envelopes carry zero so recovery traffic never
// pollutes wall-clock latency measurements with replay lag.
type Envelope[T any] struct {
	Msg       T
	Offset    uint64
	PubUnixNS int64
}

// ErrClosed is returned by Publish after Close.
var ErrClosed = errors.New("queue: closed")

// ErrNotRetained is returned by SubscribeFrom on a topic built without a
// LogBackend: replay needs the log.
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

// Record is one entry of a topic's retained log. A wrapper of one field
// is vestigial: it stays only while the benchmark driver names it, and
// retires with the change that opens benchmark/.
type Record[T any] struct {
	Msg T
}

// LogBackend is the storage engine behind a topic's offset-addressable
// retained log. The disk-backed WAL is the production one: it survives the
// process, which is what makes whole-cluster restarts recoverable.
// Implementations are safe for concurrent use; the topic guarantees Append
// calls are serialized (its publish lock) and always at offset End().
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

// Topic is a fan-out pub/sub queue: every subscriber receives every
// message, matching the paper's design in which "every partition needs to
// handle the entire stream of edge creation events". Publish blocks when a
// subscriber's buffer is full (backpressure), and concurrent publishers are
// serialized, so every subscriber observes offset order. A topic built over
// a LogBackend additionally appends every published message to it, so a
// recovering consumer can replay from a checkpointed offset via
// SubscribeFrom. Safe for concurrent use.
type Topic[T any] struct {
	name string
	buf  int

	// pubMu serializes publishers so offset order equals every subscriber's
	// delivery order — the invariant both replay and any consumer-side
	// offset sequencing depend on. mu guards the mutable state below; it
	// is never held across a channel send, and — so a disk-backed log
	// cannot stall subscribes and replay hand-offs behind an fsync — never
	// across a backend call either: the retained append happens under
	// pubMu alone, before the publish becomes visible via published.
	pubMu sync.Mutex
	mu    sync.Mutex

	subs   []*subscriber[T]
	byCh   map[<-chan Envelope[T]]*subscriber[T]
	closed bool

	// backend stores the retained log (nil: the topic retains nothing).
	// Appends are ordered by pubMu; the backend synchronizes its own reads
	// against them.
	backend LogBackend[T]

	// published is the next offset to assign. Over a backend it resumes
	// from the backend's durable end at construction, so offsets
	// stay meaningful across a process restart.
	published uint64
}

// Options configures a Topic: its label and its backpressure bound.
type Options struct {
	// Name labels the topic in stats.
	Name string
	// Buffer is each subscriber's channel capacity; 0 selects 1024.
	Buffer int
	// Ordered is vestigial and ignored: every topic serializes its
	// publishers. It stays while the benchmark driver sets it, and retires
	// with the change that opens benchmark/.
	Ordered bool
}

// NewTopicWithLog creates a Topic whose retained log is stored in the
// given backend; a nil backend retains nothing: subscribers see what is
// published after they subscribe. Pass an opened WAL to make
// the log durable: offsets then survive the process, and the topic resumes
// publishing from the backend's end. The topic does
// not take ownership — the caller closes a durable backend itself, after
// the topic's consumers (including replayers) have drained.
func NewTopicWithLog[T any](opts Options, backend LogBackend[T]) *Topic[T] {
	b := opts.Buffer
	if b <= 0 {
		b = 1024
	}
	t := &Topic[T]{
		name:    opts.Name,
		buf:     b,
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
	if t.backend == nil {
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
			env := Envelope[T]{Msg: r.Msg, Offset: next + uint64(i)}
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
// publish offset. Returns ErrClosed after Close, and surfaces
// retained-append failures from a durable log backend. The second parameter
// is vestigial and ignored: it stays while the benchmark driver passes it,
// and retires with the change that opens benchmark/.
func (t *Topic[T]) Publish(msg T, _ time.Duration) error {
	t.pubMu.Lock()
	defer t.pubMu.Unlock()
	// mu is held only for the brief bookkeeping on either side of the
	// retained append, which runs under pubMu alone: a slow disk (a WAL
	// fsync batch) back-pressures publishers without stalling Subscribe,
	// replay hand-offs, or stats reads behind file I/O. The record lands in
	// the backend before published advances, so any replayer that observes
	// the offset can read it.
	t.mu.Lock()
	closed, off := t.closed, t.published
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if t.backend != nil {
		if err := t.backend.Append(Record[T]{Msg: msg}); err != nil {
			return fmt.Errorf("queue: %s: retained append: %w", t.name, err)
		}
	}
	t.mu.Lock()
	t.published++
	subs := t.subs
	t.mu.Unlock()
	t.fanOut(subs, msg, off)
	return nil
}

// fanOut sends the same envelope to every subscriber; one mid-Unsubscribe
// is skipped via done. The publish wall-clock time is taken once.
func (t *Topic[T]) fanOut(subs []*subscriber[T], msg T, off uint64) {
	env := Envelope[T]{Msg: msg, Offset: off, PubUnixNS: time.Now().UnixNano()}
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
// pubMu first waits out any in-flight Publish fan-out, so no send can race
// the channel close.
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
// compaction — as far as the backend's granularity allows (the disk WAL
// deletes whole segments and may retain a little extra). The caller is responsible for the safety
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
