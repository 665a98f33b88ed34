package queue

import (
	"fmt"
	"sync"
)

// memLog is an in-memory LogBackend: a slice indexed by offset - start,
// truncated entry by entry. The topic tests retain their logs in it, and the
// WAL's tests and benchmarks use it as the reference a disk log is held to.
type memLog[T any] struct {
	mu    sync.Mutex
	log   []Record[T]
	start uint64
}

func (m *memLog[T]) Append(rec Record[T]) error {
	m.mu.Lock()
	m.log = append(m.log, rec)
	m.mu.Unlock()
	return nil
}

func (m *memLog[T]) Read(from uint64, dst []Record[T]) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if from < m.start {
		return 0, fmt.Errorf("queue: read offset %d below log start %d: %w", from, m.start, ErrTruncated)
	}
	end := m.start + uint64(len(m.log))
	if from >= end {
		return 0, nil
	}
	n := copy(dst, m.log[from-m.start:])
	return n, nil
}

func (m *memLog[T]) Start() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.start
}

func (m *memLog[T]) End() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.start + uint64(len(m.log))
}

func (m *memLog[T]) TruncateBelow(offset uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.start + uint64(len(m.log))
	if offset > end {
		offset = end
	}
	if offset <= m.start {
		return m.start
	}
	kept := m.log[offset-m.start:]
	// Reallocate rather than reslice so the dropped prefix's memory is
	// actually reclaimable.
	m.log = append(make([]Record[T], 0, len(kept)), kept...)
	m.start = offset
	return m.start
}

func (m *memLog[T]) Close() error { return nil }

// newRetained builds a topic whose log a fresh memLog retains.
func newRetained[T any](opts Options) *Topic[T] {
	return NewTopicWithLog[T](opts, &memLog[T]{})
}
