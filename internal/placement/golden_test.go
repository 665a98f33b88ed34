package placement

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// testdata/PLACEMENT was written by the encoder of PR 14 (commit 0f8c592,
// the last one with the stream-reader decode stack) from goldenTable below;
// it pins the byte format across codec rewrites.

func goldenTable(t *testing.T, path string) *Table {
	t.Helper()
	tbl := NewTable(path, 0xfeedface12345678)
	for _, step := range []func() error{
		func() error { _, err := tbl.Bump(0, 1); return err },
		func() error { _, err := tbl.Bump(0, 1); return err },
		func() error { _, err := tbl.Add(3, 2); return err },
		func() error { return tbl.Remove(1, 0) },
		func() error { _, err := tbl.Bump(300, 17); return err },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestGoldenTableDecodesAndReencodes(t *testing.T) {
	golden := filepath.Join("testdata", "PLACEMENT")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	fresh := TablePath(t.TempDir())
	want := goldenTable(t, fresh)
	if got, err := os.ReadFile(fresh); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("encoder output differs from testdata/PLACEMENT (%v)", err)
	}

	got, err := Load(golden, 0xfeedface12345678)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.slots) != 4 {
		t.Fatalf("decoded %d slots, want 4", len(got.slots))
	}
	for k, p := range want.slots {
		if got.slots[k] != p {
			t.Fatalf("slot %v = %+v, want %+v", k, got.slots[k], p)
		}
	}
	// Re-encode what was decoded, somewhere other than testdata.
	got.path = TablePath(t.TempDir())
	if err := got.save(); err != nil {
		t.Fatal(err)
	}
	if re, err := os.ReadFile(got.path); err != nil || !bytes.Equal(re, data) {
		t.Fatalf("re-encoded table differs from testdata/PLACEMENT (%v)", err)
	}
	// The table has no checksum; truncation is what its decoder must catch.
	for cut := 0; cut < len(data); cut++ {
		p := filepath.Join(t.TempDir(), "PLACEMENT")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p, 0xfeedface12345678); err == nil {
			t.Fatalf("%d-byte prefix of %d loaded", cut, len(data))
		}
	}
}

// FuzzPlacementTable: arbitrary bytes never panic the table's decoder, and a
// table that decodes re-encodes to bytes that decode to the same table.
func FuzzPlacementTable(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "PLACEMENT"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(NewTable("", 0xfeedface12345678).appendTo(nil))
	f.Add(NewTable("", 1).appendTo(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl := NewTable("", 0xfeedface12345678)
		if err := tbl.decode(data); err != nil {
			return
		}
		again := NewTable("", 0xfeedface12345678)
		if err := again.decode(tbl.appendTo(nil)); err != nil || !maps.Equal(again.slots, tbl.slots) {
			t.Fatalf("table %v re-encoded decodes to %v, %v", tbl.slots, again.slots, err)
		}
	})
}
