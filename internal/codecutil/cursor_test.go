package codecutil

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"unsafe"
)

// Equal strings read through one cursor share one copy in whatever order
// they come — a run of one name (no table at all), names interleaved, an
// empty string between them — and a run costs no allocation past its first.
// appendString appends s length-prefixed, as Cursor.String reads it.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func TestCursorStringInterns(t *testing.T) {
	var buf []byte
	seq := []string{"a1", "a1", "b2", "a1", "", "b2", "c3", "", "a1", "c3", "c3"}
	for _, s := range seq {
		buf = appendString(buf, s)
	}
	c := NewCursor(buf, "test")
	first := map[string]*byte{}
	for i, want := range seq {
		got := c.String("s", 16)
		if got != want {
			t.Fatalf("string %d = %q, want %q", i, got, want)
		}
		if p, ok := first[got]; ok && p != unsafe.StringData(got) {
			t.Fatalf("string %d (%q) is a second copy", i, got)
		}
		first[got] = unsafe.StringData(got)
	}
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}

	buf = buf[:0]
	for i := 0; i < 100; i++ {
		buf = appendString(buf, "diamond")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		c := Cursor{b: buf}
		for i := 0; i < 100; i++ {
			c.String("s", 16)
		}
	}); allocs > 1 {
		t.Fatalf("a run of one name cost %v allocations, want 1", allocs)
	}
}

// Cursors that share a table (Intern) share one copy of each string across
// the sections they read, and a section whose strings the table already
// holds costs no allocation for them.
func TestCursorsShareInternedStrings(t *testing.T) {
	var buf []byte
	names := []string{"m01", "m02", "m03", "m01", "m04", "m02"}
	for _, s := range names {
		buf = appendString(buf, s)
	}
	var table Strings
	read := func() []string {
		c := NewCursor(buf, "test")
		c.Intern(&table)
		out := make([]string, len(names))
		for i := range out {
			out[i] = c.String("s", 16)
		}
		if err := c.Done(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first, second := read(), read()
	for i, s := range first {
		if s != names[i] || unsafe.StringData(s) != unsafe.StringData(second[i]) {
			t.Fatalf("string %d: %q and %q are not one copy of %q", i, s, second[i], names[i])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		c := Cursor{b: buf, strs: &table}
		for range names {
			c.String("s", 16)
		}
	}); allocs > 0 {
		t.Fatalf("strings the shared table holds cost %v allocations, want 0", allocs)
	}
}

func TestCursorReadsWhatWriterWrote(t *testing.T) {
	magic := [8]byte{'M', 'S', 'T', 'E', 'S', 'T', 0, 1}
	buf := append([]byte(nil), magic[:]...)
	buf = binary.AppendUvarint(buf, 3)
	buf = binary.AppendVarint(buf, -77)
	buf = appendString(buf, "diamond")
	buf = appendString(buf, "diamond")
	buf = appendString(buf, "")
	buf = binary.AppendUvarint(buf, 1<<63)
	sum := CRC32C(buf)
	buf = binary.LittleEndian.AppendUint32(buf, sum)

	c := NewCursor(buf, "test")
	if got := c.Checked(); got != sum {
		t.Fatalf("Checked = %08x, want %08x (%v)", got, sum, c.Err)
	}
	c.Header(magic, 3)
	if v := c.I("i"); v != -77 {
		t.Fatalf("I = %d", v)
	}
	a, b := c.String("a", 16), c.String("b", 16)
	if a != "diamond" || b != "diamond" || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatalf("strings %q %q not interned to one copy", a, b)
	}
	if s := c.String("empty", 16); s != "" {
		t.Fatalf("empty string = %q", s)
	}
	if v := c.U("u"); v != 1<<63 {
		t.Fatalf("U = %d", v)
	}
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
	// The first failure latches; later reads return zero values.
	if c.U("past the end"); !errors.Is(c.Err, io.ErrUnexpectedEOF) {
		t.Fatalf("read past the end: %v", c.Err)
	}
	first := c.Err
	if v := c.I("after failure"); v != 0 || c.Err != first {
		t.Fatalf("latched cursor returned %d, %v", v, c.Err)
	}
}

func TestCursorRejectsMalformedInput(t *testing.T) {
	overflow := bytes.Repeat([]byte{0xff}, 11)
	for _, tc := range []struct {
		name string
		data []byte
		read func(*Cursor)
	}{
		{"varint overflow", overflow, func(c *Cursor) { c.U("u") }},
		{"count beyond the data", []byte{200, 1, 0}, func(c *Cursor) { c.Count("n", 1) }},
		{"string beyond its max", []byte{5, 'a', 'b', 'c', 'd', 'e'}, func(c *Cursor) { c.String("s", 4) }},
		{"string beyond the data", []byte{5, 'a'}, func(c *Cursor) { c.String("s", 16) }},
		{"bad checksum", overflow, func(c *Cursor) { c.Checked() }},
		{"checksum shorter than a trailer", []byte{1, 2, 3}, func(c *Cursor) { c.Checked() }},
		{"bad trailer", overflow, func(c *Cursor) { c.Byte("b"); c.Trailer() }},
		{"trailing bytes", overflow, func(c *Cursor) { c.Byte("b"); c.Done() }},
		{"wrong magic", overflow, func(c *Cursor) { c.Header([8]byte{1}, 1) }},
		{"wrong version", append(make([]byte, 8), 2), func(c *Cursor) { c.Header([8]byte{}, 1) }},
	} {
		c := NewCursor(tc.data, "test")
		if tc.read(c); c.Err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestCursorTrailerMidSection(t *testing.T) {
	data := []byte{9, 8, 7}
	data = binary.LittleEndian.AppendUint32(data, CRC32C(data))
	data = append(data, "rest"...)
	c := NewCursor(data, "test")
	for i := 0; i < 3; i++ {
		c.Byte("payload")
	}
	if c.Trailer(); c.Err != nil || c.Len() != 4 {
		t.Fatalf("Trailer: %v, %d bytes left", c.Err, c.Len())
	}
}

func TestArenaSlicesDoNotBleed(t *testing.T) {
	a := Arena[int]{Chunk: 8}
	x, y := a.Take(3), a.Take(3)
	x = append(x, 99) // must reallocate, not write y[0]
	if y[0] != 0 || len(x) != 4 {
		t.Fatalf("append to one arena slice reached its neighbour: %v %v", x, y)
	}
	if a.Take(0) != nil {
		t.Fatal("empty take pins the arena")
	}
	big := a.Take(100) // larger than a chunk: gets an array of its own
	if len(big) != 100 || cap(big) != 100 {
		t.Fatalf("oversized take: len %d cap %d", len(big), cap(big))
	}
	if got := a.Copy([]int{1, 2}); got[0] != 1 || got[1] != 2 || cap(got) != 2 {
		t.Fatalf("Copy = %v (cap %d)", got, cap(got))
	}
}
