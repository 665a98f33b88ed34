package codecutil

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Cursor is an error-latching decoder over one in-memory section — a whole
// checkpoint file or one wire frame: after the first failure every get
// returns a zero value and the error is reported once via Err (or Done).
// Nested sections compose by position: an embedded codec is handed the
// cursor and leaves it just past its own bytes. Prefix names the decoding
// layer in error messages.
type Cursor struct {
	Prefix string
	Err    error

	b      []byte // Checked trims verified trailers off the end
	pos    int
	last   string            // the previous String result
	intern map[string]string // every String result, once there are two
}

// NewCursor returns a cursor at the start of b. The cursor aliases b; only
// String copies out of it.
func NewCursor(b []byte, prefix string) *Cursor {
	return &Cursor{Prefix: prefix, b: b}
}

var errVarintOverflow = errors.New("varint overflows 64 bits")

// Fail latches err with the given field context.
func (c *Cursor) Fail(context string, err error) {
	if c.Err == nil {
		c.Err = fmt.Errorf("%s: %s: %w", c.Prefix, context, err)
	}
}

// Len returns the number of unread bytes.
func (c *Cursor) Len() int { return len(c.b) - c.pos }

// Done returns the latched error, or an error when bytes remain unread:
// the outermost decoder calls it once every section has been parsed.
func (c *Cursor) Done() error {
	if c.Err == nil && c.Len() > 0 {
		c.Fail("end of section", fmt.Errorf("%d trailing bytes", c.Len()))
	}
	return c.Err
}

// varint advances past a varint of n bytes as encoding/binary reports it.
func (c *Cursor) varint(context string, n int) bool {
	switch {
	case n > 0:
		c.pos += n
		return true
	case n == 0:
		c.Fail(context, io.ErrUnexpectedEOF)
	default:
		c.Fail(context, errVarintOverflow)
	}
	return false
}

// U reads a uvarint.
func (c *Cursor) U(context string) uint64 {
	if c.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.pos:])
	if !c.varint(context, n) {
		return 0
	}
	return v
}

// I reads a zigzag varint.
func (c *Cursor) I(context string) int64 {
	if c.Err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.pos:])
	if !c.varint(context, n) {
		return 0
	}
	return v
}

// take consumes n raw bytes, aliasing the section.
func (c *Cursor) take(context string, n int) []byte {
	if c.Err != nil {
		return nil
	}
	if n > c.Len() {
		c.Fail(context, io.ErrUnexpectedEOF)
		return nil
	}
	c.pos += n
	return c.b[c.pos-n : c.pos]
}

// Byte reads one raw byte.
func (c *Cursor) Byte(context string) byte {
	if b := c.take(context, 1); b != nil {
		return b[0]
	}
	return 0
}

// Count reads an element count and rejects one the unread bytes cannot
// hold at minBytes per element, so a corrupt length fails here instead of
// sizing an allocation.
func (c *Cursor) Count(context string, minBytes int) int {
	n := c.U(context)
	if c.Err == nil && n > uint64(c.Len()/minBytes) {
		c.Fail(context, fmt.Errorf("implausible count %d with %d bytes left", n, c.Len()))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string of at most max bytes. Equal
// strings read through one cursor share one copy: a segment or a candidate
// batch names each of its few motif programs once per candidate. A repeat of
// the previous string — all a single-program deployment ever reads — costs
// a comparison; the table is built when a second distinct string turns up.
func (c *Cursor) String(context string, max int) string {
	n := c.U(context)
	if c.Err == nil && n > uint64(max) {
		c.Fail(context, fmt.Errorf("implausible length %d", n))
	}
	b := c.take(context, int(n))
	if len(b) == 0 {
		return ""
	}
	if string(b) == c.last {
		return c.last
	}
	s, ok := c.intern[string(b)]
	if !ok {
		s = string(b)
		if c.last != "" {
			if c.intern == nil {
				c.intern = map[string]string{c.last: c.last}
			}
			c.intern[s] = s
		}
	}
	c.last = s
	return s
}

// Header consumes a file's magic and format version, failing on a mismatch
// of either.
func (c *Cursor) Header(magic [8]byte, version uint64) {
	if got := c.take("magic", len(magic)); got != nil && [8]byte(got) != magic {
		c.Fail("magic", fmt.Errorf("bad magic %q", got))
	}
	if v := c.U("version"); c.Err == nil && v != version {
		c.Fail("version", fmt.Errorf("unsupported version %d", v))
	}
}

// Checked declares the unread bytes one checksummed section — payload
// followed by the 4-byte little-endian CRC32C of the payload — and verifies
// it in one pass before any of the payload is parsed. The trailer is
// dropped from the cursor, so Done holds exactly when the payload has been
// consumed. It returns the verified sum.
func (c *Cursor) Checked() uint32 {
	if c.Err != nil {
		return 0
	}
	end := len(c.b) - 4
	if end < c.pos {
		c.Fail("checksum trailer", io.ErrUnexpectedEOF)
		return 0
	}
	stored, sum := binary.LittleEndian.Uint32(c.b[end:]), CRC32C(c.b[c.pos:end])
	if stored != sum {
		c.Fail("checksum trailer", fmt.Errorf("stored %08x, computed %08x", stored, sum))
		return 0
	}
	c.b = c.b[:end]
	return sum
}

// Trailer consumes a 4-byte CRC32C trailer that must match every byte
// consumed so far — for a checksummed section that opens its file but is
// not all of it, whose end only parsing it finds.
func (c *Cursor) Trailer() {
	sum := CRC32C(c.b[:c.pos])
	if t := c.take("checksum trailer", 4); t != nil && binary.LittleEndian.Uint32(t) != sum {
		c.Fail("checksum trailer", fmt.Errorf("stored %08x, computed %08x", binary.LittleEndian.Uint32(t), sum))
	}
}

// Arena hands out sub-slices of shared backing arrays, so a decoded segment,
// a captured delta or a connection's candidate frames cost a few allocations
// instead of one per list. Each slice is three-index, so an append to one
// reallocates instead of bleeding into its neighbour. An arena never reuses
// what it issued; one list that outlives its siblings pins the whole array,
// so arena-backed lists suit transient states and values whose holders accept
// that (motif.Candidate.Via's contract).
type Arena[T any] struct {
	// Chunk is how many elements to allocate when the free space cannot
	// hold a request (a larger request gets an array of its own size).
	Chunk int
	free  []T
}

// arenaChunk caps one decode-arena array at 4096 elements: few enough
// allocations to vanish beside the parse, small enough that a section of
// deletions and one-entry lists does not zero megabytes it never fills.
const arenaChunk = 4096

// SectionArena returns the arena for the elements, each at least minBytes
// long, of the section c has left: one array when the section can hold no
// more than arenaChunk of them, arenaChunk-sized arrays otherwise.
func SectionArena[T any](c *Cursor, minBytes int) Arena[T] {
	return Arena[T]{Chunk: min(c.Len()/minBytes, arenaChunk)}
}

// Take returns a zeroed slice of n elements, nil for n == 0.
func (a *Arena[T]) Take(n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(a.free) {
		a.free = make([]T, max(n, a.Chunk))
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// Copy returns an arena-backed copy of src.
func (a *Arena[T]) Copy(src []T) []T {
	s := a.Take(len(src))
	copy(s, src)
	return s
}
