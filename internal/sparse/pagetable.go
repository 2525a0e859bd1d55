package sparse

import "unsafe"

// Page geometry shared by Matrix and PagedVector: a page covers pageSize
// consecutive indices. Touched indices are scattered — one action of one VM
// among thousands of hosts — so nearly every touched index pays a page of
// its own, and the size balances the table (one slot per page of the
// declared dimension d) against the pages (pageSize records per touched
// index): for Matrix, whose records are 72 bytes, √(d/18·touched) is 26 for a
// day at 10 000 × 1 000 (d = 10⁷, ≈800 indices touched).
const (
	pageShift = 5
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// eagerIndices is the budget below which a table is allocated whole: a
// Matrix or PagedVector of at most this many indices carves all its pages
// from one allocation at construction, so nothing on its update path
// allocates a page later — the paper's 800 × 1 052 world is under it. A
// larger one allocates pages as they are first written, so it costs what it
// holds, not what it spans — 10 000 × 1 000 is over it. Either way the
// layout, the code that walks it and every stored bit are the same.
const eagerIndices = 1 << 20

// lazyChunkShift sizes the chunks an on-demand table grows by: 16 pages, so
// sixteen first writes share one allocation.
const lazyChunkShift = 4

// pageTable holds the pages of a paged container. Page p of the index space
// is number slot[p]−1 in a sequence of pages kept in equal chunks, and is
// unwritten — reading as the zero T — while slot[p] is 0. Slots are numbers,
// not pointers: the table is the one part sized by the declared dimension,
// and this way the garbage collector never scans it.
type pageTable[T any] struct {
	slot   []uint32
	chunks [][]T
	shift  uint // a chunk holds 1<<shift pages
	used   int  // pages handed out
}

// newPageTable returns a table of n unwritten pages; eager hands every page
// out now, from one chunk.
func newPageTable[T any](n int, eager bool) pageTable[T] {
	t := pageTable[T]{slot: make([]uint32, n), shift: lazyChunkShift}
	if eager {
		for t.shift = 0; 1<<t.shift < n; t.shift++ {
		}
		t.chunks = [][]T{make([]T, n)}
		for p := range t.slot {
			t.slot[p] = uint32(p + 1)
		}
		t.used = n
	}
	return t
}

// peek returns page p, or nil while it is unwritten.
func (t *pageTable[T]) peek(p int) *T {
	s := t.slot[p]
	if s == 0 {
		return nil
	}
	s--
	return &t.chunks[s>>t.shift][s&(1<<t.shift-1)]
}

// touch returns page p for writing, handing it out on first use.
func (t *pageTable[T]) touch(p int) *T {
	if t.slot[p] == 0 {
		if t.used>>t.shift == len(t.chunks) {
			t.chunks = append(t.chunks, make([]T, 1<<t.shift))
		}
		t.used++
		t.slot[p] = uint32(t.used)
	}
	return t.peek(p)
}

// each calls f for every written page, in index order.
func (t *pageTable[T]) each(f func(p int, pg *T)) {
	for p := range t.slot {
		if pg := t.peek(p); pg != nil {
			f(p, pg)
		}
	}
}

// residentBytes is what the table holds: its slots and its chunks, which
// are all one length.
func (t *pageTable[T]) residentBytes() int {
	var pg T
	n := 4 * len(t.slot)
	if len(t.chunks) > 0 {
		n += len(t.chunks) * len(t.chunks[0]) * int(unsafe.Sizeof(pg))
	}
	return n
}
