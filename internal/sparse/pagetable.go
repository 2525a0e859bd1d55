package sparse

import "unsafe"

// Page geometry of a Matrix: a page covers pageSize consecutive indices.
// Touched indices are scattered, so nearly every one pays a page of its
// own, and the size trades the slot table (4d/pageSize bytes for dimension
// d) against the pages (4·pageSize bytes of record numbers per touched
// index): √(d/touched) is 112 for a day at 10 000 × 1 000 (d = 10⁷, ≈800
// indices touched), above the 64 that a page's one-word diagonal flags
// allow.
const (
	pageShift = 5
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// eagerIndices is the budget below which a table is allocated whole: a
// Matrix of at most this many indices carves all its pages from one
// allocation at construction, so nothing on its update path allocates a
// page later — the paper's 800 × 1 052 world is under it. A larger one
// allocates pages as they are first written, so it costs what it holds, not
// what it spans — 10 000 × 1 000 is over it. Either way the layout, the code
// that walks it and every stored bit are the same.
const eagerIndices = 1 << 20

// lazyChunkShift sizes the chunks an on-demand table grows by: 16 pages, so
// sixteen first writes share one allocation.
const lazyChunkShift = 4

// pool hands out numbered items kept in equal chunks that never move: item
// n is chunks[n>>shift][n&(1<<shift-1)], counting from 1. Item 0 is never
// handed out and stays the zero T, so 0 numbers none, and a reader may load
// it instead of testing for it. Numbers, not pointers: what holds them — a
// page table's slots, a Matrix page's records — holds no pointer for the
// garbage collector to scan.
type pool[T any] struct {
	chunks [][]T
	shift  uint // a chunk holds 1<<shift items
	used   int  // items handed out
}

// at returns item n, which must have been handed out.
func (p *pool[T]) at(n uint32) *T {
	return &p.chunks[n>>p.shift][n&(1<<p.shift-1)]
}

// add hands out the next item, zero, and returns its number.
func (p *pool[T]) add() uint32 {
	if p.used++; p.used>>p.shift == len(p.chunks) {
		p.chunks = append(p.chunks, make([]T, 1<<p.shift))
	}
	return uint32(p.used)
}

// residentBytes is what the pool holds: its chunks, which are all one
// length, and their headers.
func (p *pool[T]) residentBytes() int {
	var x T
	n := int(unsafe.Sizeof(p.chunks)) * cap(p.chunks)
	if len(p.chunks) > 0 {
		n += len(p.chunks) * len(p.chunks[0]) * int(unsafe.Sizeof(x))
	}
	return n
}

// pageTable holds the pages of a paged container. Page p of the index space
// is item slot[p] of a pool, and is unwritten — reading as the zero T —
// while slot[p] is 0. The slots are the one part sized by the declared
// dimension.
type pageTable[T any] struct {
	slot []uint32
	pool[T]
}

// newPageTable returns a table of n unwritten pages; eager hands every page
// out now, from one chunk.
func newPageTable[T any](n int, eager bool) pageTable[T] {
	t := pageTable[T]{slot: make([]uint32, n), pool: pool[T]{shift: lazyChunkShift}}
	if eager {
		for t.shift = 0; 1<<t.shift <= n; t.shift++ {
		}
		t.chunks = [][]T{make([]T, n+1)}
		for p := range t.slot {
			t.slot[p] = uint32(p + 1)
		}
		t.used = n
	}
	return t
}

// peek returns page p, or nil while it is unwritten.
func (t *pageTable[T]) peek(p int) *T {
	if s := t.slot[p]; s != 0 {
		return t.at(s)
	}
	return nil
}

// touch returns page p for writing, handing it out on first use.
func (t *pageTable[T]) touch(p int) *T {
	if t.slot[p] == 0 {
		t.slot[p] = t.add()
	}
	return t.at(t.slot[p])
}

// each calls f for every written page, in index order.
func (t *pageTable[T]) each(f func(p int, pg *T)) {
	for p := range t.slot {
		if pg := t.peek(p); pg != nil {
			f(p, pg)
		}
	}
}

// residentBytes is what the table holds: its slots and its pool.
func (t *pageTable[T]) residentBytes() int {
	return 4*len(t.slot) + t.pool.residentBytes()
}
