package codecutil

import (
	"os"
	"path/filepath"
	"testing"
)

// TestReplaceFile: a successful write replaces the content; a failed one
// leaves the previous version in place and no temp file behind.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	// A non-empty directory in the way fails the rename, after the temp file
	// was written.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "previous"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, durable := range []bool{false, true} {
		for _, v := range []string{"one", "two"} {
			if err := ReplaceFile(path, []byte(v), durable); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); string(got) != v {
				t.Fatalf("durable=%v: content %q, want %q", durable, got, v)
			}
		}
		if err := ReplaceFile(blocked, []byte("torn"), durable); err == nil {
			t.Fatalf("durable=%v: a rename over a non-empty directory succeeded", durable)
		}
		if _, err := os.Stat(filepath.Join(blocked, "previous")); err != nil {
			t.Fatalf("durable=%v: failed write clobbered the previous version: %v", durable, err)
		}
		if _, err := os.Stat(blocked + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("durable=%v: temp file left behind (%v)", durable, err)
		}
	}
}
