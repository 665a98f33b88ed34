package graph

import "testing"

func TestEdgeStringAndTime(t *testing.T) {
	e := Edge{Src: 1, Dst: 2, Type: Retweet, TS: 1_000}
	if e.String() == "" {
		t.Fatal("empty String()")
	}
	if e.Time().UnixMilli() != 1_000 {
		t.Fatal("Time() round-trip failed")
	}
	if Follow.String() != "follow" || Retweet.String() != "retweet" || Favorite.String() != "favorite" {
		t.Fatal("EdgeType names wrong")
	}
	if EdgeType(42).String() == "" {
		t.Fatal("unknown EdgeType should still render")
	}
}
