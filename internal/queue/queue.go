// Package queue provides the in-process message fabric the cluster runs
// on: a Topic is one log that every consumer reads in full through its own
// Reader, at its own offset, with backpressure on the slowest live reader;
// a topic built over a LogBackend retains the whole log, so a reader can
// start anywhere above the log's start. It simulates nothing: the paper's
// queue-propagation delay (7s median, 15s p99 end-to-end) is a function of
// the seed and an event's offset, which the cluster's delivery loop derives
// where it spends it, so no envelope, record or log byte carries one.
//
// Offsets are the durability currency of the whole system: every
// published message is stamped with its position in the topic's publish
// sequence, consumers checkpoint the offsets they have applied, and a
// recovering consumer resumes with a reader at its checkpoint offset X: the
// reader returns X, X+1, … in order, from the backend while X lies behind
// the in-memory tail and from the tail after, with no gap, no duplicate and
// no hand-off between the two. TruncateBelow implements log compaction: once
// every consumer has a durable checkpoint at or above an offset, the prefix
// below it can be dropped, bounding the retained log's size. See
// docs/DURABILITY.md for the full offset-semantics contract.
package queue

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// Envelope wraps a message crossing a queue. Offset is the message's
// position in the topic's publish sequence; consumers that checkpoint their
// progress record it so a restarted consumer can resume with a reader there.
// PubUnixNS is the wall-clock time (UnixNano) the message was first
// published; replayed envelopes carry zero so recovery traffic never
// pollutes wall-clock latency measurements with replay lag.
type Envelope[T any] struct {
	Msg       T
	Offset    uint64
	PubUnixNS int64
}

// ErrClosed is returned by Publish after the topic's Close, and by Read
// after the reader's.
var ErrClosed = errors.New("queue: closed")

// ErrNotRetained is returned for an offset behind the in-memory tail of a
// topic built without a LogBackend: replay needs the log.
var ErrNotRetained = errors.New("queue: topic does not retain its log")

// ErrTruncated is wrapped by NewReader and Read errors when the requested
// offset has been compacted away by TruncateBelow: the caller's
// checkpoint predates the retained log and cannot be replayed.
var ErrTruncated = errors.New("queue: offset below truncated log start")

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

// Topic is the firehose: one log of published messages that every consumer
// reads in full at its own offset, matching the paper's design in which
// "every partition needs to handle the entire stream of edge creation
// events". The newest Options.Buffer envelopes stay in an in-memory tail; a
// topic built over a LogBackend also appends every message to it, so a
// reader can start, or fall, behind the tail. Publishers are serialized, so
// every reader observes offset order. Safe for concurrent use.
type Topic[T any] struct {
	name string

	// pubMu serializes publishers. mu guards the state below and is never
	// held across a backend call, so a disk-backed log cannot stall readers
	// behind an fsync: the retained append runs under pubMu alone, before
	// the publish becomes visible via published. room (on mu) parks a
	// publisher while a live reader lags by the whole tail.
	pubMu sync.Mutex
	mu    sync.Mutex
	room  sync.Cond

	// tail holds the newest filled envelopes; offset o sits at
	// tail[o%len(tail)].
	tail    []Envelope[T]
	filled  uint64
	readers []*Reader[T]
	closed  bool

	// backend stores the retained log (nil: the topic retains only its
	// tail). It synchronizes its own reads against the appends.
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
	// Buffer is the length of the in-memory tail, and so how far a live
	// reader may lag before Publish waits for it; 0 selects 1024.
	Buffer int
	// Ordered is vestigial and ignored: every topic serializes its
	// publishers. It stays while the benchmark driver sets it, and retires
	// with the change that opens benchmark/.
	Ordered bool
}

// NewTopicWithLog creates a Topic whose retained log is stored in the
// given backend; a nil backend retains only the in-memory tail. Pass an
// opened WAL to make the log durable: offsets then survive the process, and
// the topic resumes publishing from the backend's end. The topic does not
// take ownership — the caller closes a durable backend itself, after the
// topic's readers have drained.
func NewTopicWithLog[T any](opts Options, backend LogBackend[T]) *Topic[T] {
	b := opts.Buffer
	if b <= 0 {
		b = 1024
	}
	t := &Topic[T]{name: opts.Name, tail: make([]Envelope[T], b), backend: backend}
	t.room.L = &t.mu
	if backend != nil {
		// A durable backend may already hold a previous run's log: resume
		// the offset sequence where it left off.
		t.published = backend.End()
	}
	return t
}

// replayChunk is how many records a replaying reader reads from the backend
// at a time, whatever its callers' batch.
const replayChunk = 256

// Reader is one consumer's cursor over a topic's log; one goroutine reads
// it, and Close may come from any. A reader behind the tail replays from
// the backend, and Publish does not wait for it. Once its offset lies in
// the tail it is live, for good: Publish waits while it lags by the whole
// tail, so it never reads the backend again. Envelopes below the head it
// went live at carry PubUnixNS zero, so recovery traffic never pollutes
// wall-clock latency measurements; the rest carry their publish time.
type Reader[T any] struct {
	t     *Topic[T]
	ready chan struct{} // one-slot: a wake-up is pending
	// recs holds backend records read ahead, from offset recsAt on: a
	// replay reads the backend a chunk at a time. The reading goroutine's.
	recs   []Record[T]
	recsAt uint64

	// Guarded by the topic's mu. stamp: the head the reader went live at
	// (^0 before). waiting: the last Read reached the head, so the next
	// publish wakes the reader.
	next, stamp           uint64
	live, waiting, closed bool
}

// NewReader opens a reader at offset, anywhere from the log's start to its
// head: below the backend's start is an error wrapping ErrTruncated, behind
// the tail of a topic without a backend ErrNotRetained.
func (t *Topic[T]) NewReader(offset uint64) (*Reader[T], error) {
	// Checked outside mu (the backend synchronizes itself); a truncation
	// racing past it surfaces from Read.
	if t.backend != nil {
		if start := t.backend.Start(); offset < start {
			return nil, fmt.Errorf("queue: read offset %d below log start %d: %w", offset, start, ErrTruncated)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case offset > t.published:
		return nil, fmt.Errorf("queue: read offset %d beyond head %d", offset, t.published)
	case t.backend == nil && offset < t.published-t.filled:
		return nil, ErrNotRetained
	}
	r := &Reader[T]{t: t, ready: make(chan struct{}, 1), next: offset, stamp: ^uint64(0)}
	r.joinLocked()
	t.readers = append(t.readers, r)
	return r, nil
}

// Ready receives once a Read may return something new, envelopes or the
// end: at once after a Read that stopped short of the head, else at the next
// publish or either Close. A wake-up may find nothing new.
func (r *Reader[T]) Ready() <-chan struct{} { return r.ready }

func (r *Reader[T]) wake() {
	select {
	case r.ready <- struct{}{}:
	default: // one pending wake-up is enough
	}
}

// Read copies the envelopes at the reader's offset into dst, as many as are
// published and fit, from the tail when they are recent and from the
// backend otherwise, and advances past them. It never waits for a publish:
// (0, nil) means nothing new yet. After the topic's Close and the last
// envelope it returns io.EOF; after the reader's Close, ErrClosed; below a
// truncated log start, an error wrapping ErrTruncated.
func (r *Reader[T]) Read(dst []Envelope[T]) (int, error) {
	t := r.t
	t.mu.Lock()
	from, head := r.next, t.published
	n := int(min(uint64(len(dst)), head-from))
	switch {
	case r.closed:
		t.mu.Unlock()
		return 0, ErrClosed
	case from == head:
		r.waiting = true
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return 0, io.EOF
		}
		return 0, nil
	case from >= head-t.filled:
		m := copy(dst[:n], t.tail[from%uint64(len(t.tail)):])
		copy(dst[m:n], t.tail) // the tail wraps at most once
		for i := range dst[:n] {
			if dst[i].Offset < r.stamp {
				dst[i].PubUnixNS = 0
			}
		}
		r.advance(n)
		t.mu.Unlock()
		return n, nil
	}
	t.mu.Unlock()

	// Behind the tail, so replaying over a backend (without one, every
	// reader opens in the tail and stays there): read it outside mu.
	if from < r.recsAt || from >= r.recsAt+uint64(len(r.recs)) {
		if r.recs == nil {
			r.recs = make([]Record[T], replayChunk)
		}
		m, err := t.backend.Read(from, r.recs[:min(replayChunk, head-from)])
		if err == nil && m == 0 {
			err = fmt.Errorf("queue: %s: backend returned nothing at offset %d below head %d", t.name, from, head)
		}
		if err != nil {
			return 0, err
		}
		r.recs, r.recsAt = r.recs[:m], from
	}
	recs := r.recs[from-r.recsAt:]
	n = min(n, len(recs))
	for i, rec := range recs[:n] {
		dst[i] = Envelope[T]{Msg: rec.Msg, Offset: from + uint64(i)}
	}
	t.mu.Lock()
	r.advance(n)
	t.mu.Unlock()
	return n, nil
}

// advance moves the cursor past n envelopes and arms the wake-up Ready
// promises. The caller holds mu.
func (r *Reader[T]) advance(n int) {
	t := r.t
	r.next += uint64(n)
	r.joinLocked()
	if r.next < t.published || t.closed {
		r.wake()
	} else {
		r.waiting = true
	}
	t.room.Broadcast()
}

// joinLocked makes a reader whose offset lies in the tail live — the
// backpressure bound's member — as a replay that caught up within a
// subscription's buffer of the head used to join the fan-out. The caller
// holds mu.
func (r *Reader[T]) joinLocked() {
	t := r.t
	if !r.live && r.next >= t.published-t.filled {
		r.live, r.stamp, r.recs = true, t.published, nil
	}
}

// Close releases the reader: Publish stops waiting for it, and its Read
// returns ErrClosed. This is how a crashed consumer is torn down; what it
// had not read is simply not read, as with a dead process. Idempotent.
func (r *Reader[T]) Close() {
	t := r.t
	t.mu.Lock()
	r.closed = true
	t.readers = slices.DeleteFunc(t.readers, func(o *Reader[T]) bool { return o == r })
	t.room.Broadcast()
	t.mu.Unlock()
	r.wake()
}

// Publish appends msg to the log, stamping it with the next offset and the
// wall-clock time, and wakes the readers waiting for it. It first waits
// while a live reader lags by the whole tail (backpressure). Returns
// ErrClosed after Close, and surfaces retained-append failures from a
// durable log backend. The second parameter is vestigial and ignored: it
// stays while the benchmark driver passes it, and retires with the change
// that opens benchmark/.
func (t *Topic[T]) Publish(msg T, _ time.Duration) error {
	t.pubMu.Lock()
	defer t.pubMu.Unlock()
	t.mu.Lock()
	for t.lagging() {
		t.room.Wait()
	}
	closed, off := t.closed, t.published // Close needs pubMu: closed holds
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if t.backend != nil {
		if err := t.backend.Append(Record[T]{Msg: msg}); err != nil {
			return fmt.Errorf("queue: %s: retained append: %w", t.name, err)
		}
	}
	env := Envelope[T]{Msg: msg, Offset: off, PubUnixNS: time.Now().UnixNano()}
	t.mu.Lock()
	t.tail[off%uint64(len(t.tail))] = env
	t.published++
	t.filled = min(t.filled+1, uint64(len(t.tail)))
	for _, r := range t.readers {
		if r.waiting {
			r.waiting = false
			r.wake()
		}
	}
	t.mu.Unlock()
	return nil
}

// lagging reports whether a live reader is a whole tail behind the head, so
// the next publish would overwrite an envelope it has not read. The caller
// holds mu.
func (t *Topic[T]) lagging() bool {
	for _, r := range t.readers {
		if r.live && t.published-r.next >= uint64(len(t.tail)) {
			return true
		}
	}
	return false
}

// Close ends the log: Publish afterwards fails, and every reader reads to
// the head, then io.EOF. Taking pubMu first waits out any in-flight Publish.
func (t *Topic[T]) Close() {
	t.pubMu.Lock()
	defer t.pubMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for _, r := range t.readers {
		r.wake()
	}
}

// Subscribe and SubscribeFrom adapt a reader, from the head or from offset,
// to a channel a goroutine pumps it into, closed at the end of the log. The
// benchmark driver ranges over them; nothing else calls them, and they
// retire with the change that opens benchmark/.
func (t *Topic[T]) Subscribe() <-chan Envelope[T] {
	ch, _ := t.SubscribeFrom(t.Published()) // the head is always readable
	return ch
}

func (t *Topic[T]) SubscribeFrom(offset uint64) (<-chan Envelope[T], error) {
	r, err := t.NewReader(offset)
	if err != nil {
		return nil, err
	}
	ch := make(chan Envelope[T], 256) // one read's worth in flight
	go func() {
		defer close(ch)
		buf := make([]Envelope[T], cap(ch))
		for {
			n, err := r.Read(buf)
			for _, env := range buf[:n] {
				ch <- env
			}
			if n == 0 && err != nil {
				return
			}
			<-r.ready
		}
	}()
	return ch, nil
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
