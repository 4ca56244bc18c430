package ad

// slabMinChunk is the size, in elements, of a fresh tape's first chunk of
// each kind; NewTape stays cheap because nothing is allocated before the
// first operation and the first chunks are small.
const slabMinChunk = 256

// chunk is one contiguous block of a slab.
type chunk[T any] struct {
	data []T
	// fill is how many elements this cycle has handed out; dirty is how
	// many may still hold an earlier cycle's values.
	fill, dirty int
}

// slab is a bump allocator of T over a chain of chunks. Chunks never
// move, so handed-out slices and pointers stay valid until reset, which
// rewinds to the first chunk and keeps the chain for the next cycle. A
// cycle that outgrows the chain appends a chunk half the chain's size or
// larger, so the chain holds at most about 1.5 times the largest cycle's
// use: one cycle's high-water mark, never the sum of several.
type slab[T any] struct {
	chunks []chunk[T]
	cur    int // chunk being filled
}

// alloc returns n zeroed elements.
func (s *slab[T]) alloc(n int) []T {
	for s.cur < len(s.chunks) && s.chunks[s.cur].fill+n > len(s.chunks[s.cur].data) {
		s.cur++
	}
	if s.cur == len(s.chunks) {
		capacity := 0
		for _, c := range s.chunks {
			capacity += len(c.data)
		}
		s.chunks = append(s.chunks, chunk[T]{data: make([]T, max(n, slabMinChunk, capacity/2))})
	}
	c := &s.chunks[s.cur]
	lo, hi := c.fill, c.fill+n
	if lo < c.dirty {
		clear(c.data[lo:min(hi, c.dirty)])
	}
	c.fill, c.dirty = hi, max(hi, c.dirty)
	return c.data[lo:hi:hi]
}

// reset rewinds the slab for the next cycle.
func (s *slab[T]) reset() {
	for i := range s.chunks[:min(s.cur+1, len(s.chunks))] {
		s.chunks[i].fill = 0
	}
	s.cur = 0
}
