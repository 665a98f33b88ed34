package transport

import (
	"bufio"
	"io"
	"testing"
)

// BenchmarkCandBatchDecode decodes candidate frames of a steady stream's
// shape — 64 messages of four candidates — through one connection's decoder,
// as the hub's candidate handler does.
func BenchmarkCandBatchDecode(b *testing.B) {
	_, payloads := candBatches(64, 64)
	dec := newCandDecoder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := payloads[i%len(payloads)]
		if _, _, err := decodeCandBatch(wireCursor(p[1:]), dec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvBatchWrite encodes a full envelope batch into the feed's buffer
// and frames it through a connection writer, as the hub's feed handler does.
func BenchmarkEnvBatchWrite(b *testing.B) {
	envs := envBatch(64)
	c := &conn{bw: bufio.NewWriterSize(io.Discard, 64<<10)}
	var frame []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = encodeEnvBatch(frame[:0], logMeta{7, 100, 5}, envs)
		if err := c.writeMsg(frame); err != nil {
			b.Fatal(err)
		}
	}
}
