package codecutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestReplaceFile: a successful write replaces the content; a failed one
// leaves the previous version in place and no temp file behind.
func TestReplaceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	put := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	for _, durable := range []bool{false, true} {
		for _, v := range []string{"one", "two"} {
			if err := ReplaceFile(path, put(v), durable); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); string(got) != v {
				t.Fatalf("durable=%v: content %q, want %q", durable, got, v)
			}
		}
		boom := errors.New("boom")
		err := ReplaceFile(path, func(w io.Writer) error {
			io.WriteString(w, "torn")
			return boom
		}, durable)
		if !errors.Is(err, boom) {
			t.Fatalf("durable=%v: err = %v, want the writer's", durable, err)
		}
		if got, _ := os.ReadFile(path); string(got) != "two" {
			t.Fatalf("durable=%v: failed write clobbered the file: %q", durable, got)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("durable=%v: temp file left behind (%v)", durable, err)
		}
	}
}
