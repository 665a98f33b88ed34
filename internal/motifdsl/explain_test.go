package motifdsl

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExplainGolden pins the EXPLAIN output for one plan of each shape.
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/motifdsl -run Golden.
func TestExplainGolden(t *testing.T) {
	cases := []struct {
		file, src string
	}{
		{"diamond.golden", validDiamond},
		{"k1_broadcast.golden", `
motif "broadcast" {
    match A -> B;
    match B =[follow]=> C;
    where count(B) >= 1;
    emit C to A;
    limit candidates 10;
}`},
		{"content_pertype.golden", `
motif "content" {
    match A -> B;
    match B =[retweet]=> C within 5m;
    match B =[favorite]=> C within 30m;
    where count(B) >= 2;
    emit C to A via B;
    limit fanout 64;
}`},
		{"chain_depth2.golden", `
motif "deep" {
    match A -> M;
    match M -> B;
    match B => C;
    where count(B) >= 2;
    emit C to A;
}`},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			spec, err := ParseOne(c.src)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := PlanSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			got := plan.Describe()
			path := filepath.Join("testdata", c.file)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_GOLDEN=1): %v", err)
			}
			if got != string(want) {
				t.Fatalf("EXPLAIN drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", c.file, got, want)
			}
		})
	}
}
