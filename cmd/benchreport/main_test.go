package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// captureStdout redirects os.Stdout around fn.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	fn()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestTableAlignment(t *testing.T) {
	tb := newTable("name", "value")
	tb.add("short", "1")
	tb.addf("much-longer-name|%d", 123456)
	out := captureStdout(t, tb.print)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Fatalf("lines = %q", lines)
	}
	// The separator row dashes must cover the widest cell per column.
	if !strings.Contains(lines[1], strings.Repeat("-", len("much-longer-name"))) {
		t.Fatalf("separator too short: %q", lines[1])
	}
	// Every row starts with the two-space indent.
	for _, l := range lines {
		if !strings.HasPrefix(l, "  ") {
			t.Fatalf("row %q lacks indent", l)
		}
	}
}

func TestTableAddfSplitsOnPipe(t *testing.T) {
	tb := newTable("a", "b", "c")
	tb.addf("x|%d|%s", 1, "y")
	if len(tb.rows) != 1 || len(tb.rows[0]) != 3 {
		t.Fatalf("rows = %v", tb.rows)
	}
	if tb.rows[0][2] != "y" {
		t.Fatalf("cells = %v", tb.rows[0])
	}
}

func TestWorkloadSizes(t *testing.T) {
	qu, qf, qe := workloadSizes(true)
	fu, ff, fe := workloadSizes(false)
	if qu >= fu || qe >= fe || qf > ff {
		t.Fatal("quick sizes should be smaller than full sizes")
	}
}

func TestCachedWorkloadsAreMemoized(t *testing.T) {
	a := cachedGraph(500, 5)
	b := cachedGraph(500, 5)
	if &a[0] != &b[0] {
		t.Fatal("cachedGraph rebuilt instead of memoizing")
	}
	s1 := cachedSlowStream(500, 1_000, 60)
	s2 := cachedSlowStream(500, 1_000, 60)
	if &s1[0] != &s2[0] {
		t.Fatal("cachedSlowStream rebuilt instead of memoizing")
	}
	// Different spans are different cache entries.
	s3 := cachedSlowStream(500, 1_000, 120)
	if &s1[0] == &s3[0] {
		t.Fatal("different spans share a cache entry")
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[uint64]string{
		512:     "512 B",
		2 << 10: "2.0 KiB",
		3 << 20: "3.0 MiB",
		4 << 30: "4.0 GiB",
		5 << 40: "5.0 TiB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestSafeDiv(t *testing.T) {
	if safeDiv(10, 2) != 5 {
		t.Fatal("safeDiv broken")
	}
	if safeDiv(10, 0) != 0 {
		t.Fatal("division by zero should yield 0")
	}
}

// TestRunSelectsExperiments drives the selection main uses: a known ID
// runs its experiment and prints its table; an ID the index does not hold
// (the retired T1 among them) runs nothing and is a usage error.
func TestRunSelectsExperiments(t *testing.T) {
	var stderr bytes.Buffer
	var code int
	out := captureStdout(t, func() { code = run([]string{"-exp", "F1"}, &stderr) })
	if code != 0 || stderr.Len() != 0 {
		t.Fatalf("-exp F1: exit %d, stderr %q", code, stderr.String())
	}
	for _, want := range []string{"===== F1:", "B2→C2 arrives", "push C2 to A2 (via 2 supporting B's)", "1 experiment(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("-exp F1 output lacks %q:\n%s", want, out)
		}
	}
	for _, id := range []string{"T1", "nope"} {
		stderr.Reset()
		out := captureStdout(t, func() { code = run([]string{"-exp", id}, &stderr) })
		if code != 2 || !strings.Contains(stderr.String(), "unknown experiment IDs: "+strings.ToUpper(id)) {
			t.Errorf("-exp %s: exit %d, stderr %q", id, code, stderr.String())
		}
		if strings.Contains(out, "=====") {
			t.Errorf("-exp %s ran an experiment:\n%s", id, out)
		}
	}
	stderr.Reset()
	if code := run([]string{"-trajectory"}, &stderr); code != 2 {
		t.Errorf("-trajectory: exit %d, want 2 (unknown flag)", code)
	}
}
