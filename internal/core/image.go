package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"megh/internal/sparse"
)

// A checkpoint image is the bytes encoding/gob writes for one value of the
// version-2 persistedState, written and read here without gob (DESIGN.md
// §7.6): imagePrefix, then one message — its length, imageTypeID, then
// each field as the delta from the previous field number and its value,
// zero values left out, every struct closed by a 0. decodeImage is the
// only reader, and it refuses every other shape.

// imagePrefix is gob's definitions of the image's types as the version-2
// build sent them, frozen: testdata/checkpoint_v2_packed.gob opens with
// them. imageTypeID is the id they give persistedState.
const (
	imagePrefix = "\xff\xd2\x7f\x03\x01\x01\x0epersistedState\x01\xff\x80\x00\x01\x0f\x01\x07Version\x01\x04\x00\x01\x06Config" +
		"\x01\xff\x82\x00\x01\x04Temp\x01\x08\x00\x01\x01B\x01\xff\x84\x00\x01\x01Z\x01\xff\x8c\x00\x01\x05Theta" +
		"\x01\xff\x8c\x00\x01\x07Pending\x01\xff\x8a\x00\x01\x0cPendingTotal\x01\x04\x00\x01\x08StepCost" +
		"\x01\x08\x00\x01\x08HaveCost\x01\x02\x00\x01\x0aNNZHistory\x01\xff\x8a\x00\x01\x08Deferred" +
		"\x01\xff\x92\x00\x01\x08DeferAge\x01\x04\x00\x01\x07RngSeed\x01\x04\x00\x01\x08RngState" +
		"\x01\xff\x94\x00\x00\x00\xff\xcb\xff\x81\x03\x01\x01\x06Config\x01\xff\x82\x00\x01\x0c\x01\x06NumVMs" +
		"\x01\x04\x00\x01\x08NumHosts\x01\x04\x00\x01\x05Gamma\x01\x08\x00\x01\x05Temp0\x01\x08\x00\x01\x07Epsilon" +
		"\x01\x08\x00\x01\x11MaxMigrationsFrac\x01\x08\x00\x01\x12UnderloadThreshold\x01\x08\x00\x01\x0fExplorationRate" +
		"\x01\x08\x00\x01\x04Seed\x01\x04\x00\x01\x0dNNZHistoryCap\x01\x04\x00\x01\x0eDeferThreshold" +
		"\x01\x08\x00\x01\x0bDeferMaxAge\x01\x04\x00\x00\x00\xff\x94\xff\x83\x03\x01\x01\x0bMatrixState" +
		"\x01\xff\x84\x00\x01\x09\x01\x03Dim\x01\x04\x00\x01\x04Diag\x01\x08\x00\x01\x07DropTol" +
		"\x01\x08\x00\x01\x0aPackedRows\x01\x0a\x00\x01\x0aPackedCols\x01\x0a\x00\x01\x0aPackedVals" +
		"\x01\x0a\x00\x01\x0aPackedDiag\x01\x0a\x00\x01\x08Triplets\x01\xff\x88\x00\x01\x0eOverriddenDiag" +
		"\x01\xff\x8a\x00\x00\x00\x1f\xff\x87\x02\x01\x01\x10[]sparse.Triplet" +
		"\x01\xff\x88\x00\x01\xff\x86\x00\x00\x2d\xff\x85\x03\x01\x01\x07Triplet\x01\xff\x86\x00\x01\x03\x01\x03Row" +
		"\x01\x04\x00\x01\x03Col\x01\x04\x00\x01\x03Val\x01\x08\x00\x00\x00\x13\xff\x89\x02\x01\x01\x05[]int" +
		"\x01\xff\x8a\x00\x01\x04\x00\x00\x57\xff\x8b\x03\x01\x01\x0bVectorState\x01\xff\x8c\x00\x01\x05\x01\x03Dim" +
		"\x01\x04\x00\x01\x0bPackedIndex\x01\x0a\x00\x01\x0bPackedValue\x01\x0a\x00\x01\x05Index" +
		"\x01\xff\x8a\x00\x01\x05Value\x01\xff\x8e\x00\x00\x00\x17\xff\x8d\x02\x01\x01\x09[]float64" +
		"\x01\xff\x8e\x00\x01\x08\x00\x00\x24\xff\x91\x02\x01\x01\x15[]core.deferredUpdate" +
		"\x01\xff\x92\x00\x01\xff\x90\x00\x00\x34\xff\x8f\x03\x01\x01\x0edeferredUpdate\x01\xff\x90\x00\x01\x04\x01\x01A" +
		"\x01\x04\x00\x01\x01B\x01\x04\x00\x01\x01N\x01\x04\x00\x01\x01C" +
		"\x01\x08\x00\x00\x00\x16\xff\x93\x02\x01\x01\x08[]uint64\x01\xff\x94\x00\x01\x06\x00\x00"
	imageTypeID = 64
)

// A fieldList points at the fields of one struct of the image in the order
// imagePrefix numbers them. Encoder and decoder both walk these lists, and
// TestImageCodecKnowsEveryField holds them to the structs. A string names
// a retired field: nothing writes it, and the reader refuses it when set.
type fieldList struct {
	n int
	f [15]any // persistedState's fields, the most of any struct
}

func stateFields(st *persistedState) fieldList {
	return fieldList{15, [15]any{&st.Version, &st.Config, &st.Temp, &st.B, &st.Z, &st.Theta, &st.Pending,
		&st.PendingTotal, &st.StepCost, &st.HaveCost, &st.NNZHistory, "Deferred", "DeferAge", "RngSeed", &st.RngState}}
}

func configFields(c *Config) fieldList {
	return fieldList{12, [15]any{&c.NumVMs, &c.NumHosts, &c.Gamma, &c.Temp0, &c.Epsilon, &c.MaxMigrationsFrac,
		&c.UnderloadThreshold, &c.ExplorationRate, &c.Seed, &c.NNZHistoryCap, "Config.DeferThreshold", "Config.DeferMaxAge"}}
}

func matrixFields(m *sparse.MatrixState) fieldList {
	return fieldList{9, [15]any{&m.Dim, &m.Diag, &m.DropTol, &m.PackedRows, &m.PackedCols, &m.PackedVals, &m.PackedDiag,
		"MatrixState.Triplets", "MatrixState.OverriddenDiag"}}
}

func vectorFields(v *sparse.VectorState) fieldList {
	return fieldList{5, [15]any{&v.Dim, &v.PackedIndex, &v.PackedValue, "VectorState.Index", "VectorState.Value"}}
}

// WriteImage writes the learner's checkpoint image — the bytes SaveState
// writes — to w and returns its length. The image is counted, which
// allocates nothing, then written in order through one buffer of at most
// 32 KiB: the packed lists straight from B's records, the NNZ history ring
// oldest first where it lies. A failed write leaves a prefix.
func (m *Megh) WriteImage(w io.Writer) (int64, error) {
	var rng [2]uint64
	rng[0], rng[1] = m.rng.state()
	st := persistedState{
		Version: stateVersion, Config: m.cfg, Temp: m.temp,
		B: sparse.MatrixState{Dim: m.b.Dim(), Diag: m.b.Diag(), DropTol: m.b.DropTolerance()},
		Z: sparse.VectorState{Dim: m.b.Dim()}, Theta: sparse.VectorState{Dim: m.b.Dim()},
		PendingTotal: m.pendingTotal, StepCost: m.stepCost, HaveCost: m.haveCost, RngState: rng[:],
	}
	fl := stateFields(&st)
	pending, history := [2][]int{m.pending}, [2][]int{m.nnzHistory[m.nnzStart:], m.nnzHistory[:m.nnzStart]}
	fl.f[6], fl.f[10] = &pending, &history
	c := sparse.Packed{Counting: true}
	iw := imageWriter{m: m, out: c, lens: [8]sparse.Packed{c, c, c, c, c, c, c, c}}
	l := &iw.lens
	m.b.Pack(&[8]*sparse.Packed{&l[0], &l[1], &l[2], &l[3], &l[4], &l[5], &l[6], &l[7]})
	iw.message(fl)
	n := iw.out.Len
	size := len(imagePrefix) + gobUintLen(uint64(n)) + n
	iw.out = sparse.Packed{Buf: append(make([]byte, 0, min(size, 32<<10)), imagePrefix...), W: w}
	iw.uint(uint64(n))
	iw.next = 0
	iw.message(fl)
	iw.out.Flush()
	switch {
	case iw.out.Err != nil:
		return 0, fmt.Errorf("core: encoding learner state: %w", iw.out.Err)
	case iw.out.Len != size:
		return 0, errors.New("core: encoding learner state: a packed list changed size while being packed")
	}
	return int64(size), nil
}

// imageWriter lays out a value message as gob's encoder does into out,
// which one walk only counts and the next streams.
type imageWriter struct {
	m    *Megh
	out  sparse.Packed
	last int              // the current struct's last field written; -1 before its first
	lens [8]sparse.Packed // the packed lists (see sparse.Matrix.Pack), counted before sizing
	next int              // the list the next []byte field holds
}

func (w *imageWriter) message(fl fieldList) {
	w.uint(zigzag(imageTypeID))
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
		case *[2][]int: // the writer's []int fields, each in two parts
			w.list(f, len(v[0])+len(v[1]))
			for _, part := range v {
				for _, x := range part {
					w.uint(zigzag(int64(x)))
				}
			}
		case *[]uint64:
			w.list(f, len(*v))
			for _, x := range *v {
				w.uint(x)
			}
		case *[]byte:
			j := w.next
			w.next++
			w.list(f, w.lens[j].Len)
			if w.out.Counting {
				w.out.Len += w.lens[j].Len
			} else {
				var one [8]*sparse.Packed
				one[j] = &w.out
				w.m.b.Pack(&one)
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
	n := gobUintLen(x)
	if w.out.Counting {
		w.out.Len += n
		return
	}
	w.out.Room(n)
	w.out.Buf = appendGobUint(w.out.Buf, x)
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

// decodeImage reads the image of size bytes src holds, front to back
// through one window: imagePrefix, then one message that parses exactly to
// the end with no retired field set. It steps over the packed lists,
// recording where each lies in src. With verify set NNZHistory is stepped
// over, not built: no check reads it.
func decodeImage(src io.ReaderAt, size int64, verify bool) (st *persistedState, err error) {
	r := imageReader{c: sparse.NewCursor(src, sparse.Section{Len: size}), size: size, st: &persistedState{src: src}}
	defer func() {
		if cerr := r.c.Close(); cerr != nil {
			st, err = nil, fmt.Errorf("core: reading learner state: %w", cerr)
		}
	}()
	if b := r.c.Next(len(imagePrefix)); len(b) < len(imagePrefix) || string(b[:len(imagePrefix)]) != imagePrefix {
		return nil, errors.New("core: decoding learner state: not a version-2 image")
	}
	r.c.Skip(int64(len(imagePrefix)))
	switch n := r.uint(); {
	case n < uint64(r.c.Left()):
		return nil, fmt.Errorf("core: decoding learner state: %d bytes after the image", uint64(r.c.Left())-n)
	case n > uint64(r.c.Left()):
		r.fail("a message of %d bytes, %d left", n, r.c.Left())
	case r.int() != imageTypeID && r.err == nil:
		return nil, errors.New("core: decoding learner state: not a version-2 image")
	}
	st = r.st
	fl := stateFields(st)
	if verify {
		fl.f[10] = stepOver{}
	}
	r.fields(fl)
	if r.c.Left() != 0 {
		r.fail("%d bytes after the state", r.c.Left())
	}
	switch {
	case r.err != nil && !r.retired:
		return nil, r.err
	case st.Version != stateVersion:
		return nil, fmt.Errorf("core: learner state version %d, this build reads only version %d", st.Version, stateVersion)
	case r.err != nil:
		return nil, r.err
	}
	return st, nil
}

// stepOver stands for an []int field read and dropped.
type stepOver struct{}

// imageReader parses a value message. The first thing it does not expect
// sets err, and from then on it reads nothing.
type imageReader struct {
	c       sparse.Cursor
	size    int64 // the image's length, to give offsets
	st      *persistedState
	err     error
	retired bool // err names a retired field
}

// fail records the first error, with its offset, and stops the reader.
func (r *imageReader) fail(format string, a ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: decoding learner state: byte %d: "+format, append([]any{r.size - r.c.Left()}, a...)...)
	}
	r.c.Skip(r.c.Left())
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
			*v = nilOrMake[int](r.len())
			for i := range *v {
				(*v)[i] = int(r.int())
			}
		case stepOver:
			for n := r.len(); n > 0; n-- {
				r.uint()
			}
		case *[]uint64:
			*v = nilOrMake[uint64](r.len())
			for i := range *v {
				(*v)[i] = r.uint()
			}
		case *[]byte:
			if n := r.len(); n > 0 {
				p := r.st.packed()
				r.st.lists[slices.Index(p[:], v)] = sparse.Section{Off: r.size - r.c.Left(), Len: int64(n)}
				r.c.Skip(int64(n))
			}
		case *Config:
			r.fields(configFields(v))
		case *sparse.MatrixState:
			r.fields(matrixFields(v))
		case *sparse.VectorState:
			r.fields(vectorFields(v))
		case string:
			r.fail("%s is set, a retired field this build refuses", v)
			r.retired = true
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
	b := r.c.Next(9)
	if len(b) == 0 {
		r.fail("the message ends early")
		return 0
	}
	c := b[0]
	if c <= 0x7f {
		r.c.Skip(1)
		return uint64(c)
	}
	n := -int(int8(c))
	if n > 8 || n >= len(b) {
		r.fail("a truncated or overlong integer")
		return 0
	}
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	r.c.Skip(int64(1 + n))
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
	if r.err != nil || d == 0 {
		return false
	}
	if d > uint64(n-1-*f) {
		r.fail("a field number past the last of %d", n)
		return false
	}
	*f += int(d)
	return true
}

// len reads the length of a list, which cannot pass the end of the
// message: every element takes a byte at least.
func (r *imageReader) len() int {
	n := r.uint()
	if n > uint64(r.c.Left()) {
		r.fail("a list of %d elements, %d bytes left", n, r.c.Left())
		return 0
	}
	return int(n)
}
