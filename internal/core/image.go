package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"megh/internal/sparse"
)

// A checkpoint image is one gob value of persistedState — the bytes
// gob.NewEncoder(w).Encode(st) writes — and this file writes and reads
// those bytes without running gob (DESIGN.md §7.6).
//
// A gob stream opens with the definitions of the types it carries, under
// type ids encoding/gob hands out per process in the order it first
// encodes each type, so the definitions are never spelled out here:
// imageFormat asks gob for them. After them comes one message — its length,
// the type id, then each field as the delta from the previous field number
// and its value, zero values left out, every struct closed by a 0 — which
// imageWriter lays out as gob's encoder does. decodeImage reads only that
// shape, in place; everything else goes to gob (readState), so which path
// read an image changes no verdict and no error text.

// gobFormat is what gob writes ahead of a persistedState's fields in this
// process: the type definitions, and the value's type id.
type gobFormat struct {
	prefix []byte
	id     int64
}

// imageFormat encodes a zero persistedState twice on one encoder: the
// second time gob sends the value message alone, so the first time it sent
// the definitions and then that same message.
var imageFormat = sync.OnceValues(func() (gobFormat, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(persistedState{}); err != nil {
		return gobFormat{}, err
	}
	first := buf.Len()
	if err := enc.Encode(persistedState{}); err != nil {
		return gobFormat{}, err
	}
	msg := imageReader{b: buf.Bytes()[first:]}
	msg.uint() // the message's length
	return gobFormat{prefix: buf.Bytes()[:2*first-buf.Len()], id: msg.int()}, nil
})

// A fieldList points at the fields of one struct of the image in
// declaration order, which is how gob numbers them. Encoder and decoder
// both walk these lists, and TestImageCodecKnowsEveryField holds them to
// the structs. A nil is a field nothing writes and only gob reads: a
// version-1 list or the retired Deferred queue, each refused when set.
type fieldList struct {
	n int
	f [15]any // persistedState's fields, the most of any struct
}

func stateFields(st *persistedState) fieldList {
	return fieldList{15, [15]any{&st.Version, &st.Config, &st.Temp, &st.B, &st.Z, &st.Theta, &st.Pending,
		&st.PendingTotal, &st.StepCost, &st.HaveCost, &st.NNZHistory, nil, &st.DeferAge,
		&st.RngSeed, &st.RngState}}
}

func configFields(c *Config) fieldList {
	return fieldList{12, [15]any{&c.NumVMs, &c.NumHosts, &c.Gamma, &c.Temp0, &c.Epsilon, &c.MaxMigrationsFrac,
		&c.UnderloadThreshold, &c.ExplorationRate, &c.Seed, &c.NNZHistoryCap, &c.DeferThreshold, &c.DeferMaxAge}}
}

func matrixFields(m *sparse.MatrixState) fieldList {
	return fieldList{9, [15]any{&m.Dim, &m.Diag, &m.DropTol, &m.PackedRows, &m.PackedCols, &m.PackedVals, &m.PackedDiag}}
}

func vectorFields(v *sparse.VectorState) fieldList {
	return fieldList{5, [15]any{&v.Dim, &v.PackedIndex, &v.PackedValue}}
}

// AppendImage appends the learner's checkpoint image — the bytes SaveState
// writes — to dst and returns the extended slice. The image is laid out
// twice, counting and then writing, so with dst nil it costs one
// allocation of its own size (and a chronological copy of the NNZ history
// once that ring has wrapped); B, z and θ are packed straight from their
// pages into the space reserved for them.
func (m *Megh) AppendImage(dst []byte) ([]byte, error) {
	format, err := imageFormat()
	if err != nil {
		return dst, fmt.Errorf("core: encoding learner state: %w", err)
	}
	var rng [2]uint64
	rng[0], rng[1] = m.rng.state()
	st := persistedState{
		Version: stateVersion, Config: m.cfg, Temp: m.temp,
		B: sparse.MatrixState{Dim: m.b.Dim(), Diag: m.b.Diag(), DropTol: m.b.DropTolerance()},
		Z: sparse.VectorState{Dim: m.z.Dim()}, Theta: sparse.VectorState{Dim: m.theta.Dim()},
		Pending: m.pending, PendingTotal: m.pendingTotal, StepCost: m.stepCost, HaveCost: m.haveCost,
		NNZHistory: m.NNZHistory(), RngState: rng[:],
	}
	fl := stateFields(&st)
	w := imageWriter{sizing: true}
	for i := range w.lists {
		w.lists[i].Counting = true
	}
	m.pack(&w.lists)
	w.message(format.id, fl)
	n := w.n
	dst = slices.Grow(dst, len(format.prefix)+gobUintLen(uint64(n))+n)
	w.buf, w.sizing, w.next = appendGobUint(append(dst, format.prefix...), uint64(n)), false, 0
	w.message(format.id, fl)
	m.pack(&w.lists)
	for _, l := range w.lists {
		if len(l.Buf) != l.Len {
			return dst, errors.New("core: encoding learner state: a packed list changed size while being packed")
		}
	}
	return w.buf, nil
}

// pack emits B's, z's and θ's packed lists — the image's only []byte
// fields — into lists, in field order.
func (m *Megh) pack(lists *[8]sparse.Packed) {
	m.b.Pack(&lists[0], &lists[1], &lists[2], &lists[3])
	m.z.Pack(&lists[4], &lists[5])
	m.theta.Pack(&lists[6], &lists[7])
}

// imageWriter lays out a value message as gob's encoder does. While sizing
// it only counts the bytes, so one walk sizes the image and the next writes
// it into a buffer that already has room for all of it.
type imageWriter struct {
	buf    []byte
	sizing bool
	n      int // bytes counted while sizing
	last   int // the current struct's last field written; -1 before its first
	// lists are the packed lists (see pack): counted before the sizing
	// pass, and pointed by the writing pass at the space it reserves.
	lists [8]sparse.Packed
	next  int // the list the next []byte field holds
}

func (w *imageWriter) message(id int64, fl fieldList) {
	w.uint(zigzag(id))
	w.fields(fl)
}

// fields writes a struct — each field given by a pointer into it — and
// the 0 that closes it.
func (w *imageWriter) fields(fl fieldList) {
	outer := w.last
	w.last = -1
	for f, v := range fl.f[:fl.n] {
		switch v := v.(type) {
		case *int:
			w.scalar(f, *v != 0, zigzag(int64(*v)))
		case *int64:
			w.scalar(f, *v != 0, zigzag(*v))
		case *float64:
			w.scalar(f, *v != 0, bits.ReverseBytes64(math.Float64bits(*v)))
		case *bool:
			w.scalar(f, *v, 1)
		case *[]int:
			w.list(f, len(*v))
			for _, x := range *v {
				w.uint(zigzag(int64(x)))
			}
		case *[]uint64:
			w.list(f, len(*v))
			for _, x := range *v {
				w.uint(x)
			}
		case *[]byte:
			l := &w.lists[w.next]
			w.next++
			w.list(f, l.Len)
			if w.sizing {
				w.n += l.Len
			} else {
				at := len(w.buf)
				w.buf = w.buf[:at+l.Len]
				l.Buf, l.Counting = w.buf[at:at:at+l.Len], false
			}
		case *Config:
			w.field(f)
			w.fields(configFields(v))
		case *sparse.MatrixState:
			w.field(f)
			w.fields(matrixFields(v))
		case *sparse.VectorState:
			w.field(f)
			w.fields(vectorFields(v))
		}
	}
	w.uint(0)
	w.last = outer
}

func (w *imageWriter) uint(x uint64) {
	if w.sizing {
		w.n += gobUintLen(x)
		return
	}
	w.buf = appendGobUint(w.buf, x)
}

// field writes the delta from the previous field number to f.
func (w *imageWriter) field(f int) {
	w.uint(uint64(f - w.last))
	w.last = f
}

// scalar writes field f holding x, unless the field is zero: gob leaves
// zero values out. A float's x is its bits byte-reversed, as gob sends it.
func (w *imageWriter) scalar(f int, nonzero bool, x uint64) {
	if nonzero {
		w.field(f)
		w.uint(x)
	}
}

// list writes the header of a slice field of n elements; gob leaves an
// empty slice out.
func (w *imageWriter) list(f, n int) {
	if n > 0 {
		w.field(f)
		w.uint(uint64(n))
	}
}

// zigzag is gob's signed-integer coding: the sign in the low bit.
func zigzag(x int64) uint64 {
	if x < 0 {
		return uint64(^x<<1) | 1
	}
	return uint64(x << 1)
}

// appendGobUint appends gob's unsigned-integer coding of x: x itself below
// 128, else the negated byte count and the big-endian bytes.
func appendGobUint(b []byte, x uint64) []byte {
	if x <= 0x7f {
		return append(b, byte(x))
	}
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], x)
	skip := bits.LeadingZeros64(x) >> 3
	return append(append(b, byte(skip-8)), be[skip:]...)
}

func gobUintLen(x uint64) int {
	if x <= 0x7f {
		return 1
	}
	return 9 - bits.LeadingZeros64(x)>>3
}

// decodeImage reads img in place if it is this process's canonical image —
// its definitions, then one message that parses exactly to the end of img
// with only fields the encoder writes — and returns nil if it is not. The
// byte lists of the result alias img. With verify set NNZHistory is
// stepped over, not built: no check reads it.
func decodeImage(img []byte, verify bool) *persistedState {
	format, err := imageFormat()
	if err != nil || !bytes.HasPrefix(img, format.prefix) {
		return nil
	}
	r := imageReader{b: img[len(format.prefix):]}
	if n := r.uint(); n != uint64(len(r.b)) || n >= gobTooBig || r.int() != format.id || r.bad {
		return nil
	}
	st := new(persistedState)
	fl := stateFields(st)
	if verify {
		fl.f[10] = stepOver{}
	}
	r.fields(fl)
	if r.bad || len(r.b) != 0 {
		return nil
	}
	return st
}

// stepOver stands for an []int field read and dropped.
type stepOver struct{}

// gobTooBig is encoding/gob's ceiling on a message and on the bytes a
// decoded slice takes; gob refuses anything past it.
const gobTooBig = (1 << 30) << (^uint(0) >> 62)

// imageReader parses a value message in place, as gob's decoder would.
// Anything it does not expect sets bad, and from then on it reads nothing.
type imageReader struct {
	b   []byte
	bad bool
}

// fields reads a struct into the fields fl points at, up to and including
// the 0 that closes it.
func (r *imageReader) fields(fl fieldList) {
	for f := -1; r.next(&f, fl.n); {
		switch v := fl.f[f].(type) {
		case *int:
			*v = int(r.int())
		case *int64:
			*v = r.int()
		case *float64:
			*v = math.Float64frombits(bits.ReverseBytes64(r.uint()))
		case *bool:
			*v = r.uint() != 0
		case *[]int:
			*v = nilOrMake[int](r.len(bits.UintSize / 8))
			for i := range *v {
				(*v)[i] = int(r.int())
			}
		case stepOver:
			for n := r.len(bits.UintSize / 8); n > 0; n-- {
				r.uint()
			}
		case *[]uint64:
			*v = nilOrMake[uint64](r.len(8))
			for i := range *v {
				(*v)[i] = r.uint()
			}
		case *[]byte:
			if n := r.len(1); n > 0 {
				*v, r.b = r.b[:n:n], r.b[n:]
			}
		case *Config:
			r.fields(configFields(v))
		case *sparse.MatrixState:
			r.fields(matrixFields(v))
		case *sparse.VectorState:
			r.fields(vectorFields(v))
		default: // a field only gob reads
			r.bad = true
		}
	}
}

// nilOrMake makes an n-element slice; empty is nil, as gob decodes it.
func nilOrMake[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

func (r *imageReader) uint() uint64 {
	if r.bad || len(r.b) == 0 {
		r.bad = true
		return 0
	}
	c := r.b[0]
	if c <= 0x7f {
		r.b = r.b[1:]
		return uint64(c)
	}
	n := -int(int8(c))
	if n > 8 || n >= len(r.b) {
		r.bad = true
		return 0
	}
	var x uint64
	for _, c := range r.b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	r.b = r.b[1+n:]
	return x
}

func (r *imageReader) int() int64 {
	x := r.uint()
	if x&1 != 0 {
		return ^int64(x >> 1)
	}
	return int64(x >> 1)
}

// next steps *f to the next field present in a struct of n fields, and
// reports false at the 0 that closes the struct — or at anything malformed.
func (r *imageReader) next(f *int, n int) bool {
	d := r.uint()
	if r.bad || d == 0 {
		return false
	}
	if d > uint64(n-1-*f) {
		r.bad = true
		return false
	}
	*f += int(d)
	return true
}

// len reads the length of a list of elements of size bytes each, which can
// pass neither the end of the message (every element takes a byte at
// least) nor gob's ceiling.
func (r *imageReader) len(size uint64) int {
	n := r.uint()
	if n > uint64(len(r.b)) || n*size > gobTooBig {
		r.bad = true
		return 0
	}
	return int(n)
}
