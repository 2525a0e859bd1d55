package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"megh/internal/mdp"
	"megh/internal/sparse"
)

// stateVersion is the format SaveState writes and the only one LoadState
// reads. Version 2 carries B, z and θ in sparse's packed form; version 1
// carried them element by element and is refused (DESIGN.md §7.6).
const stateVersion = 2

// persistedState is the image of a learner, which image.go writes and reads
// in the frozen version-2 layout. Everything the LSPI machinery needs
// survives a round-trip: B (the Q-table), z, θ, the temperature, the
// pending transition, and the exploration RNG state — exact to the bit, so
// a save/load pair continues the identical random stream (the differential
// suite in internal/invariant depends on this). RngState holds the two
// xoroshiro128+ words. The layout's retired fields have no Go field here:
// image.go's field lists name them. The packed lists of B, z and θ are left
// where they lie in the image: lists records where.
type persistedState struct {
	Version      int
	Config       Config
	Temp         float64
	B            sparse.MatrixState
	Z            sparse.VectorState
	Theta        sparse.VectorState
	Pending      []int
	PendingTotal int
	StepCost     float64
	HaveCost     bool
	NNZHistory   []int
	RngState     []uint64

	src   io.ReaderAt       // the image decodeImage read
	lists [8]sparse.Section // where each packed list lies in src, in packed's order
}

// packed points at the packed lists of B, z and θ, in pack's order.
func (st *persistedState) packed() [8]*[]byte {
	return [8]*[]byte{&st.B.PackedRows, &st.B.PackedCols, &st.B.PackedVals, &st.B.PackedDiag,
		&st.Z.PackedIndex, &st.Z.PackedValue, &st.Theta.PackedIndex, &st.Theta.PackedValue}
}

// SaveState serialises the learner so it can resume in a later process —
// the Q-table persistence a production deployment of an as-you-go learner
// needs across scheduler restarts. The exploration RNG state is preserved
// bit-exactly and SaveState itself consumes no randomness, so saving is
// side-effect-free and a checkpoint-restore-resumed run makes decisions
// byte-identical to the uninterrupted run it forked from.
func (m *Megh) SaveState(w io.Writer) error {
	_, err := m.WriteImage(w)
	return err
}

// SaveStateFile persists the learner atomically to path (WriteFileAtomic).
// Callers that need a consistent snapshot must serialise learner mutation
// themselves (SaveStateFile only reads).
func (m *Megh) SaveStateFile(path string) error {
	_, err := WriteFileAtomic(path, m.WriteImage)
	return err
}

// WriteFileAtomic is the one writer of checkpoint images on disk: write
// (an encoder such as (*Megh).WriteImage, or a copy) fills a uniquely named
// temp file in path's directory — an *os.File, which write may read back —
// which is renamed over path; it returns what write wrote, and any error.
// Readers never see a torn image, and concurrent writers each complete
// their own file — the last rename wins with a whole image, never an
// interleaved one. A failed write leaves no temp file behind.
func WriteFileAtomic(path string, write func(io.Writer) (int64, error)) (int64, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("core: checkpoint temp file: %w", err)
	}
	n, err := write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name())
	}
	return n, err
}

// LoadStateFile reconstructs a learner from a file written by
// SaveStateFile, read where it lies. A missing file is reported with
// os.IsNotExist semantics (errors.Is(err, fs.ErrNotExist)), so callers can
// distinguish "no checkpoint yet" from a corrupt one.
func LoadStateFile(path string) (*Megh, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return loadImage(f, info.Size())
}

// VerifyImage is VerifyImageAt on img's bytes.
func VerifyImage(img []byte) error {
	return VerifyImageAt(bytes.NewReader(img), int64(len(img)))
}

// VerifyImageAt reports whether LoadState would accept the image of size
// bytes src holds, without building the learner: it makes every check
// LoadState makes — it is the function LoadState calls first — at a cost
// proportional to the image, however large a world the image declares,
// reading src where it lies (a file or bytes) through pooled windows.
func VerifyImageAt(src io.ReaderAt, size int64) error {
	_, err := readState(src, size, true)
	return err
}

// LoadState reconstructs a learner saved with SaveState.
func LoadState(r io.Reader) (*Megh, error) {
	img, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return loadImage(bytes.NewReader(img), int64(len(img)))
}

// readAll reads an image from r to its end, into one buffer sized at once
// when r says how much it holds (a bytes.Reader, a bytes.Buffer):
// io.ReadAll's gradual growth would allocate the image about five times.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("core: decoding learner state: %w", err)
	}
	return buf.Bytes(), nil
}

func loadImage(src io.ReaderAt, size int64) (*Megh, error) {
	st, err := readState(src, size, false)
	if err != nil {
		return nil, err
	}
	return st.build()
}

// readState decodes a persisted image where it lies (decodeImage) and
// validates it. Everything that can make an image unrestorable is rejected
// here, so build cannot fail on what this returns. verify leaves out what
// only build reads.
func readState(src io.ReaderAt, size int64, verify bool) (*persistedState, error) {
	st, err := decodeImage(src, size, verify)
	if err != nil {
		return nil, err
	}
	if err := st.Config.Validate(); err != nil {
		return nil, fmt.Errorf("core: restoring learner: %w", err)
	}
	if st.Temp <= 0 || math.IsNaN(st.Temp) || math.IsInf(st.Temp, 0) {
		return nil, fmt.Errorf("core: persisted temperature %g invalid", st.Temp)
	}
	if len(st.RngState) != 2 {
		return nil, fmt.Errorf("core: persisted RNG state has %d words, want 2", len(st.RngState))
	}
	if err := st.B.Validate(st.src, st.lists[:4]); err != nil {
		return nil, fmt.Errorf("core: restoring B: %w", err)
	}
	if err := st.Z.Validate(st.src, st.lists[4:6]); err != nil {
		return nil, fmt.Errorf("core: restoring z: %w", err)
	}
	if err := st.Theta.Validate(st.src, st.lists[6:]); err != nil {
		return nil, fmt.Errorf("core: restoring θ: %w", err)
	}
	d := mdp.SpaceSize(st.Config.NumVMs, st.Config.NumHosts)
	if st.B.Dim != d || st.Z.Dim != d || st.Theta.Dim != d {
		return nil, fmt.Errorf("core: persisted dimensions (%d,%d,%d) do not match config d=%d",
			st.B.Dim, st.Z.Dim, st.Theta.Dim, d)
	}
	for _, a := range st.Pending {
		if a < 0 || a >= d {
			return nil, fmt.Errorf("core: pending action %d out of range [0,%d)", a, d)
		}
	}
	if st.PendingTotal < len(st.Pending) {
		return nil, fmt.Errorf("core: persisted PendingTotal %d is below the %d pending actions", st.PendingTotal, len(st.Pending))
	}
	return st, nil
}

// build assembles the learner a validated image describes.
func (st *persistedState) build() (*Megh, error) {
	b, err := sparse.MatrixFromState(st.B, st.src, st.lists[:4])
	if err != nil {
		return nil, fmt.Errorf("core: restoring B: %w", err)
	}
	z, err := sparse.VectorFromState(st.Z, st.src, st.lists[4:6])
	if err != nil {
		return nil, fmt.Errorf("core: restoring z: %w", err)
	}
	theta, err := sparse.VectorFromState(st.Theta, st.src, st.lists[6:])
	if err != nil {
		return nil, fmt.Errorf("core: restoring θ: %w", err)
	}
	m := assemble(st.Config, b, z.Rows(st.Config.NumHosts), theta.Paged())
	m.temp = st.Temp
	m.pending = st.Pending
	m.pendingTotal = st.PendingTotal
	m.stepCost = st.StepCost
	m.haveCost = st.HaveCost
	// The persisted series is chronological; the restored ring starts
	// unwrapped. A history longer than this config's cap (a legacy
	// unbounded checkpoint) keeps its newest cap entries.
	m.nnzHistory = st.NNZHistory
	m.nnzStart = 0
	if cap_ := m.nnzCap(); cap_ >= 0 && len(m.nnzHistory) > cap_ {
		m.nnzHistory = append([]int(nil), m.nnzHistory[len(m.nnzHistory)-cap_:]...)
	}
	m.rng.setState(st.RngState[0], st.RngState[1])
	return m, nil
}
