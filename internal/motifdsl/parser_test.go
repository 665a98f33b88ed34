package motifdsl

import (
	"strings"
	"testing"
	"time"
)

const validDiamond = `
motif "diamond" {
    match A -> B;
    match B =[follow]=> C within 10m;
    where count(B) >= 3;
    emit C to A via B;
    limit fanout 64;
    limit candidates 100;
}`

func TestParseValidDiamond(t *testing.T) {
	spec, err := ParseOne(validDiamond)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "diamond" {
		t.Fatalf("name = %q", spec.Name)
	}
	if len(spec.Matches) != 2 {
		t.Fatalf("%d matches", len(spec.Matches))
	}
	m0, m1 := spec.Matches[0], spec.Matches[1]
	if m0.Kind != StaticHop || m0.From != "A" || m0.To != "B" {
		t.Fatalf("static hop = %+v", m0)
	}
	if m1.Kind != DynamicHop || m1.From != "B" || m1.To != "C" {
		t.Fatalf("dynamic hop = %+v", m1)
	}
	if m1.Window != 10*time.Minute {
		t.Fatalf("window = %v", m1.Window)
	}
	if len(m1.EdgeTypes) != 1 || m1.EdgeTypes[0] != "follow" {
		t.Fatalf("edge types = %v", m1.EdgeTypes)
	}
	if len(spec.Wheres) != 1 || spec.Wheres[0].Var != "B" || spec.Wheres[0].Min != 3 {
		t.Fatalf("wheres = %+v", spec.Wheres)
	}
	if spec.Emit.Item != "C" || spec.Emit.User != "A" || spec.Emit.Via != "B" {
		t.Fatalf("emit = %+v", spec.Emit)
	}
	if len(spec.Limits) != 2 {
		t.Fatalf("limits = %+v", spec.Limits)
	}
}

func TestParseUntypedDynamicHop(t *testing.T) {
	spec, err := ParseOne(`
motif "x" {
    match A -> B;
    match B => C;
    where count(B) >= 2;
    emit C to A;
}`)
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Matches[1]
	if m.Kind != DynamicHop || len(m.EdgeTypes) != 0 || m.Window != 0 {
		t.Fatalf("hop = %+v", m)
	}
	if spec.Emit.Via != "" {
		t.Fatal("emit via should be empty")
	}
}

func TestParseMultipleEdgeTypes(t *testing.T) {
	spec, err := ParseOne(`
motif "content" {
    match A -> B;
    match B =[retweet, favorite]=> C within 5m;
    where count(B) >= 3;
    emit C to A via B;
}`)
	if err != nil {
		t.Fatal(err)
	}
	types := spec.Matches[1].EdgeTypes
	if len(types) != 2 || types[0] != "retweet" || types[1] != "favorite" {
		t.Fatalf("types = %v", types)
	}
}

func TestParseMultipleDeclarations(t *testing.T) {
	specs, err := Parse(validDiamond + `
motif "second" {
    match A -> B;
    match B => C;
    where count(B) >= 2;
    emit C to A;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[1].Name != "second" {
		t.Fatalf("specs = %v", specs)
	}
}

func TestParseOneRejectsMultiple(t *testing.T) {
	if _, err := ParseOne(validDiamond + validDiamond); err == nil {
		t.Fatal("two declarations accepted by ParseOne")
	}
}

func TestParseKeywordsCaseInsensitive(t *testing.T) {
	_, err := ParseOne(`
MOTIF "x" {
    MATCH A -> B;
    Match B => C Within 1m;
    WHERE COUNT(B) >= 2;
    EMIT C TO A VIA B;
    LIMIT FANOUT 8;
}`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"empty", "", "no motif"},
		{"no name", `motif { }`, "expected string"},
		{"empty name", `motif "" { match A -> B; match B => C; where count(B) >= 2; emit C to A; }`, "non-empty"},
		{"missing brace", `motif "x" match A -> B;`, "'{'"},
		{"no emit", `motif "x" { match A -> B; match B => C; where count(B) >= 2; }`, "no emit"},
		{"double emit", `motif "x" { match A -> B; match B => C; where count(B) >= 2; emit C to A; emit C to A; }`, "duplicate emit"},
		{"same endpoints", `motif "x" { match A -> A; match A => C; where count(A) >= 2; emit C to A; }`, "must differ"},
		{"within on static", `motif "x" { match A -> B within 5m; match B => C; where count(B) >= 2; emit C to A; }`, "dynamic"},
		{"zero threshold", `motif "x" { match A -> B; match B => C; where count(B) >= 0; emit C to A; }`, ">= 1"},
		{"bad limit kind", `motif "x" { match A -> B; match B => C; where count(B) >= 2; emit C to A; limit widgets 5; }`, "unknown limit"},
		{"zero limit", `motif "x" { match A -> B; match B => C; where count(B) >= 2; emit C to A; limit fanout 0; }`, ">= 1"},
		{"bad clause", `motif "x" { frobnicate; }`, "expected match"},
		{"unclosed body", `motif "x" { match A -> B;`, "end of input"},
		{"missing arrow", `motif "x" { match A B; }`, "expected"},
		{"bad duration", `motif "x" { match A -> B; match B => C within 5; where count(B) >= 2; emit C to A; }`, "duration"},
		// Truncated to 0 ms, the retweet window would reject retweets.
		{"sub-millisecond within", `motif "x" { match A -> B; match B =[retweet]=> C within 500us; match B =[favorite]=> C within 5m; where count(B) >= 2; emit C to A; }`, "1:57: duration 500µs is under a millisecond"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err.Error(), c.wantSub)
			}
		})
	}
}

func TestParseErrorsCarryPositions(t *testing.T) {
	_, err := Parse("motif \"x\" {\n    bogus;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error %q lacks line 2 position", err.Error())
	}
}

func TestSpecStringRoundTrips(t *testing.T) {
	spec, err := ParseOne(validDiamond)
	if err != nil {
		t.Fatal(err)
	}
	rendered := spec.String()
	// The canonical rendering must itself parse to an equivalent spec.
	again, err := ParseOne(rendered)
	if err != nil {
		t.Fatalf("rendered spec does not parse: %v\n%s", err, rendered)
	}
	// Compare canonical renderings (positions legitimately differ).
	if again.String() != rendered {
		t.Fatalf("round trip changed the spec:\n%s\nvs\n%s", rendered, again.String())
	}
}

func TestHopKindString(t *testing.T) {
	if StaticHop.String() != "static" || DynamicHop.String() != "dynamic" {
		t.Fatal("HopKind names wrong")
	}
}
