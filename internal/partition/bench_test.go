package partition

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkCheckpointCompose is the compactor's fold as the cluster runs it:
// a base and eight delta segments read from disk, walked, folded and
// appended as one base into a buffer the writer keeps — at the benchmark's
// steady cut shape and at a cut as multiquery's replicas write it.
func BenchmarkCheckpointCompose(b *testing.B) {
	for _, shape := range []cutShape{cutShapes[0], cutShapes[3]} {
		b.Run(shape.name, func(b *testing.B) {
			dir := b.TempDir()
			files, _ := foldChain(shape, 8)
			var paths []string
			var total int64
			for i, data := range files {
				paths = append(paths, filepath.Join(dir, string(rune('a'+i))))
				if err := os.WriteFile(paths[i], data, 0o644); err != nil {
					b.Fatal(err)
				}
				total += int64(len(data))
			}
			var buf []byte
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var ch Chain
				for j, p := range paths {
					data, err := os.ReadFile(p)
					if err != nil {
						b.Fatal(err)
					}
					if err := ch.Add(data, j == 0); err != nil {
						b.Fatal(err)
					}
				}
				buf = ch.AppendBase(buf[:0])
			}
		})
	}
}
