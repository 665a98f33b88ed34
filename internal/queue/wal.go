package queue

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"motifstream/internal/codecutil"
)

// The disk WAL is the durable LogBackend: the firehose log written as a
// sequence of segment files so the retained stream — and with it every
// checkpoint offset — outlives the process. Layout under WALOptions.Dir:
//
//	wal-00000000000000000000.seg     records from offset 0
//	wal-00000000000000004096.seg     records from offset 4096
//	...
//
// Each segment starts with a fixed header (magic, the log's identity, the
// first offset it carries) followed by length-prefixed records, each
// protected by a CRC32C:
//
//	u32 payload length | u32 CRC32C(payload) | payload
//	payload = marshaled message                      (format version 2)
//	payload = 8 bytes, unread | marshaled message    (format version 1)
//
// The magic's last byte is the segment's format version. New segments are
// version 2. A version-1 segment — written before the simulated queue delay
// left the log, which the 8-byte prefix held — stays readable: Read skips
// the prefix, and an append to a version-1 tail writes it as zeros, so a
// segment never mixes layouts and the next rotation starts a version-2 one.
//
// Durability is batched: records are buffered, handed to the OS every
// walSyncEvery (256) appends, and fsynced by a background syncer goroutine
// (with inline fsyncs at rotation, Sync, and Close), so a publish costs a
// buffered write, not an fsync wait. The deliberate consequence is the
// torn tail: an OS crash may lose the records after the last fsync. A
// reopen detects the tear during its scan — a record whose length, CRC,
// or size is inconsistent — and truncates the file back to the last valid
// record. Only the newest segment may tear; damage in an older segment
// means a hole in history and fails the open with ErrWALCorrupt instead
// of silently skipping events. docs/DURABILITY.md states what the rest of
// the system guarantees on top (checkpoints never claim offsets the log
// has not fsynced past a clean Shutdown, and a torn tail therefore only
// loses events no consumer was promised).
//
// TruncateBelow is log compaction mapped to segment deletion: whole
// leading segments whose records all lie below the horizon are unlinked;
// the newest segment is never deleted. The per-record offset index is
// kept in memory (4 bytes per retained record, where an in-memory log would
// hold the record itself) and rebuilt from the segment scan at open. A
// record's position is a uint32, which is what bounds SegmentBytes: a
// segment ends at most one record past it, so at 1 GiB every position fits.

// walMagic identifies a WAL segment file of format version 2, the one
// written; walMagicV1 one of version 1, whose records carry walV1Prefix
// unread bytes ahead of the message.
var (
	walMagic   = [8]byte{'M', 'S', 'W', 'A', 'L', 0, 0, 2}
	walMagicV1 = [8]byte{'M', 'S', 'W', 'A', 'L', 0, 0, 1}
)

const walV1Prefix = 8

// ErrWALCorrupt is wrapped by OpenWAL errors when a non-tail segment is
// damaged: the log has a hole that replay cannot paper over.
var ErrWALCorrupt = errors.New("queue: wal segment corrupt")

const (
	walHeaderLen = 24 // magic + log id + first offset
	// walRecHeader is the shared record framing's header: the WAL's
	// u32-length + CRC32C frame layout is hoisted into codecutil so the
	// transport wire protocol reuses the identical codec.
	walRecHeader  = codecutil.FrameHeaderLen
	maxWALPayload = 1 << 26

	// walSyncEvery is the fsync batch: every walSyncEvery appended records
	// the write buffer is handed to the OS and an fsync is scheduled on the
	// background syncer (rotation, Sync, and Close fsync inline). It bounds
	// the torn tail an OS crash can lose — one write buffer plus everything
	// flushed since the most recent covering fsync began, so roughly
	// walSyncEvery records on a keeping-up device and up to one
	// device-fsync-duration's worth behind a slow one. It does not make
	// individual publishes synchronously durable — call Sync for a hard
	// barrier.
	walSyncEvery           = 256
	defaultWALSegmentBytes = 4 << 20
	maxWALSegmentBytes     = 1 << 30
)

// WALOptions configures OpenWAL.
type WALOptions[T any] struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// Marshal and Unmarshal convert messages to and from record payloads.
	// Required. Marshal runs under the WAL's lock, one call at a time, and
	// its result is used only until Append returns: it may return one
	// buffer that it reuses for every call, which makes a record cost no
	// allocation.
	Marshal   func(T) ([]byte, error)
	Unmarshal func([]byte) (T, error)
	// SegmentBytes is the rotation threshold; zero selects 4 MiB, and
	// OpenWAL refuses more than 1 GiB.
	SegmentBytes int64
}

// walSegment is one on-disk segment plus its in-memory record index.
type walSegment struct {
	first uint64
	path  string
	// skip is how many payload bytes precede the message: walV1Prefix in a
	// version-1 segment, zero in a version-2 one.
	skip int
	// index[i] is the byte position of record first+i's header.
	index []uint32
	// size is the byte length of valid content (header + records).
	size int64
	// file caches a read handle for a sealed segment (immutable until
	// truncation unlinks it), opened lazily by the first Read that lands
	// here — a replay streams hundreds of chunks per segment and should
	// not pay an open/close per chunk. Closed by TruncateBelow and Close.
	file *os.File
}

func (s *walSegment) end() uint64 { return s.first + uint64(len(s.index)) }

// WAL is the segmented on-disk LogBackend. Safe for concurrent use.
type WAL[T any] struct {
	opts WALOptions[T]
	id   uint64

	mu       sync.Mutex
	segs     []*walSegment
	active   *os.File // newest segment, open for append + pread
	bw       *bufio.Writer
	frame    []byte // Append's scratch: one record's header + payload
	unsynced int    // records appended since the last fsync signal
	closed   bool
	syncErr  error // latched background fsync failure

	// The batch fsync runs on a dedicated goroutine so a full batch costs
	// publishers a flush to the OS buffer, not an fsync wait: holding mu
	// across the fsync would make every walSyncEvery-th publish pay the full
	// device latency, which measures ~5x an in-memory log's — off-path it
	// stays under 2x (TestDiskWALPublishWithin2xOfMemory). syncReq has
	// capacity 1: a signal sent while one is pending coalesces into it.
	syncReq  chan *os.File
	syncDone chan struct{}
}

// OpenWAL opens (or creates) the durable log in opts.Dir, scanning every
// segment: CRC-validating records, rebuilding the offset index, and
// recovering a torn tail by truncating the newest segment back to its
// last valid record. Damage anywhere else fails with ErrWALCorrupt.
func OpenWAL[T any](opts WALOptions[T]) (*WAL[T], error) {
	if opts.Dir == "" {
		return nil, errors.New("queue: wal: Dir is required")
	}
	if opts.Marshal == nil || opts.Unmarshal == nil {
		return nil, errors.New("queue: wal: Marshal and Unmarshal are required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultWALSegmentBytes
	}
	if opts.SegmentBytes > maxWALSegmentBytes {
		return nil, fmt.Errorf("queue: wal: SegmentBytes %d above the 1 GiB bound", opts.SegmentBytes)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("queue: wal dir: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(opts.Dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names) // zero-padded decimal first offsets sort correctly

	w := &WAL[T]{opts: opts}
	for i, name := range names {
		last := i == len(names)-1
		seg, id, err := scanWALSegment(name, last)
		if err != nil {
			if last && len(w.segs) > 0 {
				// The newest segment's header itself is unreadable — a
				// crash during rotation. Drop the file; the log ends at
				// the previous segment.
				os.Remove(name)
				break
			}
			if last && len(w.segs) == 0 && shorterThanHeader(name) {
				// A crash during the very first createSegment, before the
				// header landed: the log provably holds no records (the
				// header is fsynced before any append can happen), so
				// recover by starting fresh rather than bricking the
				// directory. A full-length file with a damaged header is
				// NOT recovered — it may be a real log with real history,
				// and silently restarting it empty would lose it.
				os.Remove(name)
				break
			}
			return nil, err
		}
		if len(w.segs) == 0 {
			w.id = id
		} else {
			prev := w.segs[len(w.segs)-1]
			if id != w.id {
				return nil, fmt.Errorf("queue: wal segment %s: log id %016x != %016x: %w", name, id, w.id, ErrWALCorrupt)
			}
			if seg.first != prev.end() {
				return nil, fmt.Errorf("queue: wal segment %s: first offset %d, expected %d: %w", name, seg.first, prev.end(), ErrWALCorrupt)
			}
		}
		w.segs = append(w.segs, seg)
	}
	if len(w.segs) == 0 {
		var idb [8]byte
		if _, err := rand.Read(idb[:]); err != nil {
			return nil, fmt.Errorf("queue: wal id: %w", err)
		}
		w.id = binary.LittleEndian.Uint64(idb[:])
		seg, err := w.createSegment(0)
		if err != nil {
			return nil, err
		}
		w.segs = []*walSegment{seg}
	}
	tail := w.segs[len(w.segs)-1]
	f, err := os.OpenFile(tail.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	// Physically drop a torn tail (and any garbage beyond it) so appends
	// continue exactly after the last valid record.
	if err := f.Truncate(tail.size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(tail.size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w.active = f
	w.bw = bufio.NewWriter(f)
	w.syncReq = make(chan *os.File, 1)
	w.syncDone = make(chan struct{})
	go w.runSyncer()
	return w, nil
}

// runSyncer performs the batched fsyncs off the append path. A sync
// request racing a rotation may arrive after its file was closed; that is
// benign — rotation fsyncs the old segment itself — so ErrClosed is
// swallowed while real fsync failures latch into syncErr and surface on
// the next append.
func (w *WAL[T]) runSyncer() {
	defer close(w.syncDone)
	for f := range w.syncReq {
		if err := f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
			w.mu.Lock()
			if w.syncErr == nil {
				w.syncErr = err
			}
			w.mu.Unlock()
		}
	}
}

// shorterThanHeader reports whether the file cannot even hold a segment
// header — the signature of a crash mid-createSegment.
func shorterThanHeader(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Size() < walHeaderLen
}

// scanWALSegment validates one segment file and builds its record index.
// For the newest segment (tail=true) an invalid record marks a torn tail:
// the scan stops there and size reports only the valid prefix. For any
// other segment the same condition is a hole and fails with ErrWALCorrupt.
func scanWALSegment(path string, tail bool) (*walSegment, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("queue: wal segment %s: header: %w", path, err)
	}
	seg := &walSegment{first: binary.LittleEndian.Uint64(hdr[16:24]), path: path, size: walHeaderLen}
	switch [8]byte(hdr[:8]) {
	case walMagic:
	case walMagicV1:
		seg.skip = walV1Prefix
	default:
		return nil, 0, fmt.Errorf("queue: wal segment %s: bad magic %q", path, hdr[:8])
	}
	id := binary.LittleEndian.Uint64(hdr[8:16])

	var rec [walRecHeader]byte
	payload := make([]byte, 0, 4096)
	for {
		pos := seg.size
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				return seg, id, nil // clean end at a record boundary
			}
			return tornOrCorrupt(seg, id, tail, path, "short record header")
		}
		// A record holds a message of at least one byte (Append refuses an
		// empty one), so no payload is as short as its prefix. A zero-filled
		// torn tail would otherwise parse as an empty record: CRC32C("") is 0.
		n, crc := codecutil.DecodeFrameHeader(rec[:])
		if n <= uint32(seg.skip) || n > maxWALPayload {
			return tornOrCorrupt(seg, id, tail, path, "implausible record length")
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return tornOrCorrupt(seg, id, tail, path, "short record payload")
		}
		if codecutil.CRC32C(payload) != crc {
			return tornOrCorrupt(seg, id, tail, path, "record checksum mismatch")
		}
		if pos > math.MaxUint32 {
			// Not a tear: a valid record the index cannot hold. Only a
			// segment written past the 1 GiB SegmentBytes bound gets here.
			return nil, 0, fmt.Errorf("queue: wal segment %s: record at byte %d past the 4 GiB index bound", path, pos)
		}
		seg.index = append(seg.index, uint32(pos))
		seg.size = pos + walRecHeader + int64(n)
	}
}

// tornOrCorrupt resolves an invalid record: tail segments recover by
// truncation (the scan's valid prefix stands), others fail the open.
func tornOrCorrupt(seg *walSegment, id uint64, tail bool, path, reason string) (*walSegment, uint64, error) {
	if tail {
		return seg, id, nil
	}
	return nil, 0, fmt.Errorf("queue: wal segment %s: %s: %w", path, reason, ErrWALCorrupt)
}

// createSegment writes a fresh segment file starting at the given offset,
// fsyncing the file and its directory so the segment (and the log
// identity it carries) survives a crash.
func (w *WAL[T]) createSegment(first uint64) (*walSegment, error) {
	path := filepath.Join(w.opts.Dir, fmt.Sprintf("wal-%020d.seg", first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [walHeaderLen]byte
	copy(hdr[:8], walMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], w.id)
	binary.LittleEndian.PutUint64(hdr[16:24], first)
	if _, err := f.Write(hdr[:]); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	if d, derr := os.Open(w.opts.Dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return &walSegment{first: first, path: path, size: walHeaderLen}, nil
}

// ID returns the log's persistent identity: a random value minted when
// the directory was first created, carried in every segment header. The
// cluster gates checkpoint files on it — offsets in a checkpoint are only
// meaningful against the log that assigned them.
func (w *WAL[T]) ID() uint64 { return w.id }

// Append implements LogBackend: marshal, frame, buffer, and fsync every
// walSyncEvery records. Marshal runs under the lock, so a codec that reuses
// one buffer makes a record cost no allocation. A message that marshals to
// no bytes is refused: the scan could not tell its record from a
// zero-filled torn tail.
func (w *WAL[T]) Append(rec Record[T]) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("queue: wal closed")
	}
	if w.syncErr != nil {
		return fmt.Errorf("queue: wal background sync: %w", w.syncErr)
	}
	msg, err := w.opts.Marshal(rec.Msg)
	if err != nil {
		return fmt.Errorf("queue: wal marshal: %w", err)
	}
	if len(msg) == 0 {
		return errors.New("queue: wal marshal: empty message")
	}
	tail := w.segs[len(w.segs)-1]
	// Frame header, a version-1 tail's zeroed prefix and the message are
	// assembled in the WAL's own buffer (mu guards it) and handed to the
	// writer in one call; msg is not used after that.
	w.frame = append(w.frame[:0], make([]byte, walRecHeader+tail.skip)...)
	w.frame = append(w.frame, msg...)
	codecutil.EncodeFrameHeader(w.frame, w.frame[walRecHeader:])
	if _, err := w.bw.Write(w.frame); err != nil {
		return err
	}
	tail.index = append(tail.index, uint32(tail.size))
	tail.size += int64(len(w.frame))
	w.unsynced++
	if w.unsynced >= walSyncEvery {
		// Batch boundary: hand the bytes to the OS here, fsync on the
		// background syncer. Coalescing sends keeps a slow device from
		// queueing unbounded sync work.
		if err := w.bw.Flush(); err != nil {
			return err
		}
		w.unsynced = 0
		select {
		case w.syncReq <- w.active:
		default:
		}
	}
	if tail.size >= w.opts.SegmentBytes {
		return w.rotateLocked()
	}
	return nil
}

// syncLocked flushes the buffered writer and fsyncs the active segment.
func (w *WAL[T]) syncLocked() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.active.Sync(); err != nil {
		return err
	}
	w.unsynced = 0
	return nil
}

// rotateLocked seals the active segment and starts a fresh one at the
// current end offset.
func (w *WAL[T]) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.active.Close(); err != nil {
		return err
	}
	tail := w.segs[len(w.segs)-1]
	seg, err := w.createSegment(tail.end())
	if err != nil {
		return err
	}
	// Segments of one log hold about as many records each: sized from the
	// one just sealed, the index grows at most once before the next
	// rotation instead of doubling its way up.
	seg.index = make([]uint32, 0, len(tail.index)+len(tail.index)/16)
	f, err := os.OpenFile(seg.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(seg.size, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	w.segs = append(w.segs, seg)
	w.active = f
	w.bw = bufio.NewWriter(f)
	return nil
}

// Read implements LogBackend: records [from, from+len(dst)) as far as one
// segment supplies them (callers loop). Every record's CRC is re-verified
// on the way out, so even damage after the open scan surfaces as an error
// rather than a bad envelope. Only the bookkeeping (and, for the newest
// segment, the flush + pread — rotation may close that file) runs under
// the mutex; sealed segments are immutable, so their disk I/O, CRC
// verification, and unmarshal all happen outside it and never stall a
// concurrent Append.
func (w *WAL[T]) Read(from uint64, dst []Record[T]) (int, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, errors.New("queue: wal closed")
	}
	if len(dst) == 0 {
		w.mu.Unlock()
		return 0, nil
	}
	start := w.segs[0].first
	if from < start {
		w.mu.Unlock()
		return 0, fmt.Errorf("queue: read offset %d below log start %d: %w", from, start, ErrTruncated)
	}
	tail := w.segs[len(w.segs)-1]
	if from >= tail.end() {
		w.mu.Unlock()
		return 0, nil
	}
	// Locate the segment holding from.
	i := sort.Search(len(w.segs), func(i int) bool { return w.segs[i].end() > from })
	seg := w.segs[i]
	idx := int(from - seg.first)
	count := len(seg.index) - idx
	if count > len(dst) {
		count = len(dst)
	}
	lo := int64(seg.index[idx])
	hi := seg.size
	if idx+count < len(seg.index) {
		hi = int64(seg.index[idx+count])
	}
	buf := make([]byte, hi-lo)
	if seg == tail {
		// The requested range may still sit in the write buffer: flush it
		// (no fsync) so the pread observes every appended record. The
		// pread itself also stays under the lock — rotation closes this
		// file.
		if err := w.bw.Flush(); err != nil {
			w.mu.Unlock()
			return 0, err
		}
		if _, err := w.active.ReadAt(buf, lo); err != nil {
			w.mu.Unlock()
			return 0, fmt.Errorf("queue: wal read %s @%d: %w", seg.path, lo, err)
		}
		w.mu.Unlock()
	} else {
		if seg.file == nil {
			f, err := os.Open(seg.path)
			if err != nil {
				w.mu.Unlock()
				return 0, err
			}
			seg.file = f
		}
		src := seg.file
		w.mu.Unlock()
		// Safe outside the lock: sealed segments never change, ReadAt is
		// concurrency-safe, and the handle is only closed by a truncation
		// below this offset — which the TruncateBelow contract forbids
		// while a replayer still needs it (a violation surfaces as a read
		// error, never a bad envelope).
		if _, err := src.ReadAt(buf, lo); err != nil {
			return 0, fmt.Errorf("queue: wal read %s @%d: %w", seg.path, lo, err)
		}
	}
	// Parse, CRC-verify, and unmarshal from the private buffer, lock-free.
	pos := 0
	for k := 0; k < count; k++ {
		if pos+walRecHeader > len(buf) {
			return 0, fmt.Errorf("queue: wal read %s: record %d overruns segment", seg.path, idx+k)
		}
		n, crc := codecutil.DecodeFrameHeader(buf[pos : pos+walRecHeader])
		pos += walRecHeader
		if n <= uint32(seg.skip) || n > maxWALPayload || pos+int(n) > len(buf) {
			return 0, fmt.Errorf("queue: wal read %s: implausible record length %d", seg.path, n)
		}
		payload := buf[pos : pos+int(n)]
		pos += int(n)
		if codecutil.CRC32C(payload) != crc {
			return 0, fmt.Errorf("queue: wal read %s: record %d checksum mismatch", seg.path, idx+k)
		}
		msg, err := w.opts.Unmarshal(payload[seg.skip:])
		if err != nil {
			return 0, fmt.Errorf("queue: wal unmarshal: %w", err)
		}
		dst[k] = Record[T]{Msg: msg}
	}
	return count, nil
}

// Start implements LogBackend.
func (w *WAL[T]) Start() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segs[0].first
}

// End implements LogBackend.
func (w *WAL[T]) End() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segs[len(w.segs)-1].end()
}

// TruncateBelow implements LogBackend as segment deletion: a leading
// segment is unlinked once every record it carries lies below the
// horizon. The newest segment always survives, so the new Start may be
// below the requested offset — retaining extra is always safe.
func (w *WAL[T]) TruncateBelow(offset uint64) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.segs) > 1 && w.segs[1].first <= offset {
		if w.segs[0].file != nil {
			w.segs[0].file.Close()
		}
		os.Remove(w.segs[0].path)
		w.segs = w.segs[1:]
	}
	return w.segs[0].first
}

// Sync forces an fsync of everything appended so far.
func (w *WAL[T]) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("queue: wal closed")
	}
	return w.syncLocked()
}

// Close implements LogBackend: stop the background syncer, then flush,
// fsync, and close the active segment — everything appended is durable
// once Close returns. The WAL rejects use afterwards; reopen the
// directory for the next run.
func (w *WAL[T]) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.syncReq)
	<-w.syncDone

	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.syncErr
	if ferr := w.bw.Flush(); err == nil {
		err = ferr
	}
	if serr := w.active.Sync(); err == nil {
		err = serr
	}
	if cerr := w.active.Close(); err == nil {
		err = cerr
	}
	for _, seg := range w.segs {
		if seg.file != nil {
			seg.file.Close()
			seg.file = nil
		}
	}
	return err
}
