package partition

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
)

// BenchmarkCheckpointCompose is the compactor's fold as the cluster runs
// it: a base and eight delta segments read from disk and decoded through one
// program-name table, composed, and written back as one base.
func BenchmarkCheckpointCompose(b *testing.B) {
	dir := b.TempDir()
	var paths []string
	var total int64
	for i := 0; i < 9; i++ {
		st := benchSegment(2000, 3, 500)
		// Deltas overlap the base on every other target, as successive cuts do.
		for c, list := range st.Targets {
			if i > 0 && int(c)%2 == 0 {
				delete(st.Targets, c)
				st.Targets[c+graph.VertexID(2000*i)] = list
			}
		}
		var data []byte
		if i == 0 {
			data = st.segment().AppendBase(nil)
		} else {
			data = st.segment().AppendDelta(nil)
		}
		paths = append(paths, filepath.Join(dir, string(rune('a'+i))))
		if err := os.WriteFile(paths[i], data, 0o644); err != nil {
			b.Fatal(err)
		}
		total += int64(len(data))
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain := make([]*Segment, len(paths))
		var names codecutil.Strings
		for j, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				b.Fatal(err)
			}
			decode := ParseDelta
			if j == 0 {
				decode = DecodeBase
			}
			if chain[j], err = decode(data, &names); err != nil {
				b.Fatal(err)
			}
		}
		st := Merge(true, chain...)
		var out bytes.Buffer
		out.Write(st.AppendBase(nil))
	}
}
