package sparse

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
)

// The packed forms below carry each array as one byte string, so the
// enclosing checkpoint image (internal/core) moves a whole array with one
// copy.
//
// An index list is ascending and coded as uvarint gaps: the first entry is
// the index itself, every later one the distance to its predecessor (≥ 1),
// so a list can be neither unsorted nor wider than any Dim the platform
// can address. A value list is one little-endian IEEE-754 word per entry —
// the stored bits, exactly.

// VectorState is the serializable image of a Vector.
type VectorState struct {
	Dim int
	// PackedIndex and PackedValue are the packed form State writes: the
	// stored indices as uvarint gaps and the stored values as 8-byte words.
	PackedIndex []byte
	PackedValue []byte
}

// State exports the vector for persistence in packed form.
func (v *Vector) State() VectorState {
	var index Packed
	index.gaps(-1, v.idx)
	return VectorState{Dim: v.dim, PackedIndex: index.Buf, PackedValue: appendWords(make([]byte, 0, 8*len(v.val)), v.val)}
}

// Packed receives one packed list from a packer (Matrix.Pack,
// RowVector.Pack, PagedVector.Pack; a nil list is skipped): appended to
// Buf, or — with Counting set — only measured in Len, or — with W set —
// streamed to W through Buf's capacity, Len counting the bytes written.
type Packed struct {
	Buf      []byte
	Len      int
	Counting bool
	W        io.Writer
	Err      error // the first error W returned; nothing is written after it
}

// Room makes room in a streamed Buf for n more bytes, writing Buf to W if
// they would not fit (p may be nil). uvarint, gap and word do not look.
func (p *Packed) Room(n int) {
	if p != nil && p.W != nil && cap(p.Buf)-len(p.Buf) < n {
		p.Flush()
	}
}

// Flush writes a streamed Buf to W and empties it.
func (p *Packed) Flush() {
	if p.Err == nil && len(p.Buf) > 0 {
		_, p.Err = p.W.Write(p.Buf)
	}
	p.Len += len(p.Buf)
	p.Buf = p.Buf[:0]
}

// gap emits index i of an ascending list whose previous entry was prev (-1
// at the start of the list).
func (p *Packed) gap(prev, i int) {
	if prev >= 0 {
		i -= prev
	}
	p.uvarint(uint64(i))
}

func (p *Packed) uvarint(x uint64) {
	if p.Counting {
		p.Len += uvarintLen(x)
	} else {
		p.Buf = binary.AppendUvarint(p.Buf, x)
	}
}

func (p *Packed) word(x float64) {
	if p.Counting {
		p.Len += 8
	} else {
		p.Buf = binary.LittleEndian.AppendUint64(p.Buf, math.Float64bits(x))
	}
}

// run makes room for some of n entries of width bytes and says how many.
func (p *Packed) run(n, width int) int {
	if p.W == nil {
		return n
	}
	p.Room(width)
	return min(n, max(1, (cap(p.Buf)-len(p.Buf))/width))
}

// gaps emits ascending indices after prev (-1 at a list's start) and
// returns the last.
func (p *Packed) gaps(prev int, idx []int) int {
	for len(idx) > 0 {
		k := p.run(len(idx), binary.MaxVarintLen64)
		for _, i := range idx[:k] {
			p.gap(prev, i)
			prev = i
		}
		idx = idx[k:]
	}
	return prev
}

func (p *Packed) words(val []float64) {
	if p.Counting {
		p.Len += 8 * len(val)
		return
	}
	for len(val) > 0 {
		k := p.run(len(val), 8)
		p.Buf = appendWords(p.Buf, val[:k])
		val = val[k:]
	}
}

// State exports the vector for persistence: the image Vector.State gives
// for the same entries, byte for byte, packed row after row with no
// assembled vector in between.
func (v *RowVector) State() VectorState {
	var index, value Packed
	v.Pack(&index, &value)
	return VectorState{Dim: v.dim, PackedIndex: index.Buf, PackedValue: value.Buf}
}

// Pack emits the vector's PackedIndex and PackedValue lists.
func (v *RowVector) Pack(index, value *Packed) {
	prev := -1
	v.each(func(r *span) {
		if index != nil {
			prev = index.gaps(prev, r.idx)
		}
		if value != nil {
			value.words(r.val)
		}
	})
}

// Pack emits the PackedIndex and PackedValue lists of the vector's non-zero
// cells: what Vector().State() holds.
func (v *PagedVector) Pack(index, value *Packed) {
	prev := -1
	v.pages.each(func(p int, pg *[pageSize]float64) {
		index.Room(pageSize * binary.MaxVarintLen64)
		value.Room(pageSize * 8)
		for k, x := range pg {
			if x != 0 && index != nil {
				index.gap(prev, p<<pageShift+k)
				prev = p<<pageShift + k
			}
			if x != 0 && value != nil {
				value.word(x)
			}
		}
	})
}

// Validate reports the first malformed field of st, whose packed lists lie
// in src at the sections at gives, in field order. It costs O(len of the
// image) and allocates nothing, whatever Dim claims.
func (st VectorState) Validate(src io.ReaderAt, at []Section) error {
	_, err := st.unpack(src, at, false)
	return err
}

// VectorFromState reconstructs a Vector, reading its lists as Validate
// does. It rejects malformed states.
func VectorFromState(st VectorState, src io.ReaderAt, at []Section) (*Vector, error) {
	return st.unpack(src, at, true)
}

// unpack makes every check a VectorState must pass, building the vector
// alongside when build is set.
func (st VectorState) unpack(src io.ReaderAt, at []Section, build bool) (v *Vector, err error) {
	index, value := NewCursor(src, at[0]), NewCursor(src, at[1])
	defer closeAll(&err, &index, &value)
	if st.Dim < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %d in vector state", st.Dim)
	}
	n, err := wordCount(value.Left(), "vector PackedValue")
	if err != nil {
		return nil, err
	}
	if build {
		v = &Vector{dim: st.Dim, idx: make([]int, n), val: make([]float64, n)}
	}
	prev := -1
	for k := 0; k < n; {
		for w := value.words(n - k); len(w) > 0; w, k = w[8:], k+1 {
			if prev, err = index.index(prev, st.Dim, "vector PackedIndex"); err != nil {
				return nil, err
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(w))
			if x == 0 {
				return nil, fmt.Errorf("sparse: vector PackedValue stores a zero at index %d", prev)
			}
			if build {
				v.idx[k], v.val[k] = prev, x
			}
		}
	}
	if index.Left() != 0 {
		return nil, fmt.Errorf("sparse: vector PackedIndex holds more indices than the %d values of PackedValue", n)
	}
	return v, nil
}

// MatrixState is the serializable image of a Matrix: the materialised
// entries plus the bookkeeping needed to reconstruct the implicit
// scaled-identity exactly (which rows' implicit diagonal has been
// overridden, even when overridden to zero).
type MatrixState struct {
	Dim     int
	Diag    float64
	DropTol float64
	// The packed form State writes, in row-major (CSR) order. PackedRows
	// lists the non-empty rows as (row gap, entry count) uvarint pairs;
	// PackedCols holds each of those rows' column indices in turn, the gap
	// coding restarting with every row; PackedVals holds the values in the
	// same order as 8-byte words; PackedDiag lists the rows whose implicit
	// diagonal is overridden, as uvarint gaps.
	PackedRows []byte
	PackedCols []byte
	PackedVals []byte
	PackedDiag []byte
}

// State exports the matrix for persistence in packed form. Every list is
// emitted in ascending order, so two identical matrices serialise
// byte-identically.
func (m *Matrix) State() MatrixState {
	var l [4]Packed
	m.Pack(&l[0], &l[1], &l[2], &l[3])
	return MatrixState{Dim: m.dim, Diag: m.diag, DropTol: m.dropTol,
		PackedRows: l[0].Buf, PackedCols: l[1].Buf, PackedVals: l[2].Buf, PackedDiag: l[3].Buf}
}

// Pack emits the matrix's packed lists: the diagonal list off each page's
// override bits, the others in one walk over its records.
func (m *Matrix) Pack(rows, cols, vals, diag *Packed) {
	prevRow, prevDiag := -1, -1
	if diag != nil {
		m.pages.each(func(p int, pg *page) {
			diag.Room(pageSize * binary.MaxVarintLen64)
			for d := pg.diag; d != 0; d &= d - 1 {
				diag.gap(prevDiag, p<<pageShift+bits.TrailingZeros64(d))
				prevDiag = p<<pageShift + bits.TrailingZeros64(d)
			}
		})
	}
	if rows == nil && cols == nil && vals == nil {
		return
	}
	m.pages.each(func(p int, pg *page) {
		for k := range pg.recs {
			r := &pg.recs[k].row
			if len(r.idx) == 0 {
				continue
			}
			if rows != nil {
				rows.Room(2 * binary.MaxVarintLen64)
				rows.gap(prevRow, p<<pageShift+k)
				rows.uvarint(uint64(len(r.idx)))
				prevRow = p<<pageShift + k
			}
			if cols != nil {
				cols.gaps(-1, r.idx)
			}
			if vals != nil {
				vals.words(r.val)
			}
		}
	})
}

// Validate reports the first malformed field of st, whose packed lists lie
// in src at the sections at gives, in field order. It costs O(len of the
// image) and allocates nothing, whatever Dim claims.
func (st MatrixState) Validate(src io.ReaderAt, at []Section) error {
	_, err := st.unpack(src, at, false, false)
	return err
}

// MatrixFromState reconstructs a Matrix, reading its lists as Validate
// does. It rejects malformed states.
func MatrixFromState(st MatrixState, src io.ReaderAt, at []Section) (*Matrix, error) {
	return st.unpack(src, at, true, st.Dim <= eagerIndices)
}

// unpack makes every check a MatrixState must pass, building the matrix
// alongside when build is set. The packed form is checked in one pass over
// its entries, rows, columns and values read in lockstep: rows strictly
// ascending, columns strictly ascending within a row, both inside [0,Dim),
// counts consistent across the four lists, no stored zero. Its rows are
// then slices of two shared arrays and the column index is filled by
// counting — no per-entry search or shift, and nothing but the page table
// sized by Dim.
func (st MatrixState) unpack(src io.ReaderAt, at []Section, build, eager bool) (m *Matrix, err error) {
	rows, cols, vals, diag := NewCursor(src, at[0]), NewCursor(src, at[1]), NewCursor(src, at[2]), NewCursor(src, at[3])
	defer closeAll(&err, &rows, &cols, &vals, &diag)
	switch {
	case st.Dim < 0:
		return nil, fmt.Errorf("sparse: negative dimension %d in matrix state", st.Dim)
	case st.DropTol < 0:
		return nil, fmt.Errorf("sparse: negative drop tolerance %g in matrix state", st.DropTol)
	}
	nnz, err := wordCount(vals.Left(), "matrix PackedVals")
	if err != nil {
		return nil, err
	}
	var (
		idx     []int
		val     []float64
		members []int
	)
	if build {
		m = newMatrix(st.Dim, st.Diag, eager)
		idx, val, members = make([]int, nnz), make([]float64, nnz), make([]int, nnz)
	}

	for i := -1; diag.Left() > 0; {
		if i, err = diag.index(i, st.Dim, "matrix PackedDiag"); err != nil {
			return nil, err
		}
		if build {
			m.setDiag(i)
		}
	}

	row, k := -1, 0
	for rows.Left() > 0 {
		if row, err = rows.index(row, st.Dim, "matrix PackedRows"); err != nil {
			return nil, err
		}
		n, w := binary.Uvarint(rows.Next(binary.MaxVarintLen64))
		if w <= 0 {
			return nil, fmt.Errorf("sparse: matrix PackedRows is truncated after row %d", row)
		}
		rows.b = rows.b[w:]
		if n == 0 || n > uint64(nnz-k) {
			return nil, fmt.Errorf("sparse: matrix PackedRows gives row %d %d entries, PackedVals has %d left",
				row, n, nnz-k)
		}
		start, col := k, -1
		for end := k + int(n); k < end; {
			for w := vals.words(end - k); len(w) > 0; w, k = w[8:], k+1 {
				// index's fast path, inlined for the one list as long as B.
				if b := cols.b; len(b) > 0 && col >= 0 && b[0]-1 < 0x7f && int(b[0]) < st.Dim-col {
					col, cols.b = col+int(b[0]), b[1:]
				} else if col, err = cols.index(col, st.Dim, "matrix PackedCols"); err != nil {
					return nil, fmt.Errorf("%w (row %d)", err, row)
				}
				x := math.Float64frombits(binary.LittleEndian.Uint64(w))
				if x == 0 {
					return nil, fmt.Errorf("sparse: matrix PackedVals stores a zero at (%d,%d)", row, col)
				}
				if build {
					idx[k], val[k] = col, x
					// Count the column's members in the length of its list:
					// until the lists are carved below, each is a prefix of
					// members that nothing reads.
					c := &m.touch(col).col
					*c = members[:len(*c)+1]
				}
			}
		}
		if build {
			// Full slice expressions: a row that grows reallocates instead
			// of writing into its neighbour.
			m.touch(row).row = span{idx: idx[start:k:k], val: val[start:k:k]}
		}
	}
	if k != nnz {
		return nil, fmt.Errorf("sparse: matrix PackedRows accounts for %d entries, PackedVals has %d", k, nnz)
	}
	if cols.Left() != 0 {
		return nil, fmt.Errorf("sparse: matrix PackedCols holds more indices than the %d values of PackedVals", nnz)
	}
	if !build {
		return nil, nil
	}
	if nnz > 0 {
		m.nnz = nnz
		// Column index by counting: carve each column's member list out of
		// members at its counted length, then append row numbers in row
		// order, which leaves every list ascending.
		off := 0
		m.pages.each(func(_ int, pg *page) {
			for k := range pg.recs {
				if c := len(pg.recs[k].col); c > 0 {
					pg.recs[k].col = members[off : off : off+c]
					off += c
				}
			}
		})
		m.pages.each(func(p int, pg *page) {
			for k := range pg.recs {
				for _, j := range pg.recs[k].row.idx {
					c := &m.peek(j).col
					*c = append(*c, p<<pageShift+k)
				}
			}
		})
	}
	// Apply the tolerance only after restoring, so stored entries that
	// are individually below a later-raised tolerance still round-trip.
	m.dropTol = st.DropTol
	return m, nil
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// index reads the entry after prev (-1 at the start of a list) from an
// ascending index list and checks it against [0,dim). field names the list
// in errors.
func (c *Cursor) index(prev, dim int, field string) (int, error) {
	// Most entries are a one-byte gap; skip the general decoder for those.
	if b := c.b; len(b) > 0 && prev >= 0 && b[0]-1 < 0x7f && int(b[0]) < dim-prev {
		c.b = b[1:]
		return prev + int(b[0]), nil
	}
	g, w := binary.Uvarint(c.Next(binary.MaxVarintLen64))
	if w <= 0 {
		return 0, fmt.Errorf("sparse: %s is truncated or overlong after %d", field, prev)
	}
	c.b = c.b[w:]
	base := 0
	if prev >= 0 {
		if g == 0 {
			return 0, fmt.Errorf("sparse: %s repeats index %d", field, prev)
		}
		base = prev
	}
	if g >= uint64(dim-base) {
		return 0, fmt.Errorf("sparse: %s steps %d past %d, out of range [0,%d)", field, g, prev, dim)
	}
	return base + int(g), nil
}

// appendWords appends each value's IEEE-754 bits, little-endian.
func appendWords(dst []byte, val []float64) []byte {
	for _, x := range val {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// wordCount is the number of 8-byte words in a packed value list of size
// bytes.
func wordCount(size int64, field string) (int, error) {
	if size%8 != 0 {
		return 0, fmt.Errorf("sparse: %s is %d bytes, not a whole number of 8-byte words", field, size)
	}
	return int(size / 8), nil
}

// A Section is where one packed list lies in an image: Len bytes from Off.
type Section struct{ Off, Len int64 }

// window is the size of the buffers Cursors read through, which windows
// pools: a few pages of a file, and room for the longest run one read looks
// at (the checkpoint image's 890-byte type definitions).
const window = 8 << 10

var windows = sync.Pool{New: func() any { return new([window]byte) }}

// A Cursor reads a section of an image front to back through a window,
// taken from the pool on its first read and given back by Close, so what
// it holds does not follow the section's length.
type Cursor struct {
	src      io.ReaderAt
	b        []byte // the unread bytes in the window
	off, end int64  // the section's unread part past b
	buf      *[window]byte
	err      error // the first failed read
}

// NewCursor reads the section s of src.
func NewCursor(src io.ReaderAt, s Section) Cursor {
	return Cursor{src: src, off: s.Off, end: s.Off + s.Len}
}

// Next returns the unread bytes in front: n of them at least (n ≤ the
// window), or all that are left.
func (c *Cursor) Next(n int) []byte {
	if len(c.b) < n && c.off < c.end {
		c.fill()
	}
	return c.b
}

// fill moves the unread bytes to the front of the window and reads after
// them as much of the section as fits. Zeros stand for what a failed read
// missed: every list reads them as malformed, and Close reports the failure.
func (c *Cursor) fill() {
	if c.buf == nil {
		c.buf = windows.Get().(*[window]byte)
	}
	k := copy(c.buf[:], c.b)
	want := int(min(int64(window-k), c.end-c.off))
	if got, err := c.src.ReadAt(c.buf[k:k+want], c.off); got < want {
		clear(c.buf[k+got : k+want])
		if c.err = err; err == nil || err == io.EOF {
			c.err = io.ErrUnexpectedEOF
		}
	}
	c.off += int64(want)
	c.b = c.buf[:k+want]
}

// Skip steps over n of the bytes left, reading none of them.
func (c *Cursor) Skip(n int64) {
	k := min(n, int64(len(c.b)))
	c.b, c.off = c.b[k:], c.off+n-k
}

// Left is the count of the section's bytes not yet read or skipped.
func (c *Cursor) Left() int64 { return int64(len(c.b)) + c.end - c.off }

// Close gives the window back and reports the first failed read.
func (c *Cursor) Close() error {
	if c.buf != nil {
		windows.Put(c.buf)
		c.buf, c.b = nil, nil
	}
	return c.err
}

// closeAll closes l; a failed read replaces *err.
func closeAll(err *error, l ...*Cursor) {
	for _, c := range l {
		if cerr := c.Close(); cerr != nil {
			*err = cerr
		}
	}
}

// words takes the next values of a packed value list: whole 8-byte words,
// at most m and at least one, which the list holds (see wordCount and fill).
func (c *Cursor) words(m int) []byte {
	b := c.Next(8)
	n := 8 * min(len(b)/8, m)
	c.b = b[n:]
	return b[:n]
}
