package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"megh/internal/sparse"
)

// imageV2 mirrors the version-2 image's type graph field for field, the
// retired fields included, so encoding/gob — the tests' oracle — reads an
// image into it and writes one from it. Only the field names and their
// order matter to gob, not the type names.
type imageV2 struct {
	Version      int
	Config       configV2
	Temp         float64
	B            matrixV2
	Z, Theta     vectorV2
	Pending      []int
	PendingTotal int
	StepCost     float64
	HaveCost     bool
	NNZHistory   []int
	Deferred     []deferredV2
	DeferAge     int
	RngSeed      int64
	RngState     []uint64
}

type configV2 struct {
	NumVMs, NumHosts                         int
	Gamma, Temp0, Epsilon, MaxMigrationsFrac float64
	UnderloadThreshold, ExplorationRate      float64
	Seed                                     int64
	NNZHistoryCap                            int
	DeferThreshold                           float64
	DeferMaxAge                              int
}

type matrixV2 struct {
	Dim                                            int
	Diag, DropTol                                  float64
	PackedRows, PackedCols, PackedVals, PackedDiag []byte
	Triplets                                       []sparse.Triplet
	OverriddenDiag                                 []int
}

type vectorV2 struct {
	Dim                      int
	PackedIndex, PackedValue []byte
	Index                    []int
	Value                    []float64
}

// deferredV2 is an entry of the retired deferred-update queue.
type deferredV2 struct {
	A, B, N int
	C       float64
}

// readMirror decodes an image into the mirror with gob.
func readMirror(t testing.TB, img []byte) imageV2 {
	t.Helper()
	var im imageV2
	if err := gob.NewDecoder(bytes.NewReader(img)).Decode(&im); err != nil {
		t.Fatalf("gob cannot read the image: %v", err)
	}
	return im
}

// mirrorImage is the image of im: gob's value message for it, reframed
// under imagePrefix and imageTypeID. gob must read it back as im, which
// holds the mirror to the frozen definitions — a field out of place reads
// back as another. An image doctored this way is canonical up to the
// doctoring, so the reader's check for that doctoring is what refuses it.
func mirrorImage(t testing.TB, im imageV2) []byte {
	t.Helper()
	img := frameMirror(t, im)
	if !bytes.Equal(frameMirror(t, readMirror(t, img)), img) {
		t.Fatal("the mirror does not follow imagePrefix: the image reads back as another value")
	}
	return img
}

func frameMirror(t testing.TB, im imageV2) []byte {
	t.Helper()
	var stream bytes.Buffer
	if err := gob.NewEncoder(&stream).Encode(im); err != nil {
		t.Fatal(err)
	}
	// Step over gob's type definitions to the last message, the value, and
	// over its type id, which is this process's.
	b := stream.Bytes()
	r := imageReader{c: sparse.NewCursor(bytes.NewReader(b), sparse.Section{Len: int64(len(b))})}
	defer r.c.Close()
	for n := r.uint(); n < uint64(r.c.Left()); n = r.uint() {
		r.c.Skip(int64(n))
	}
	r.int()
	if r.err != nil {
		t.Fatalf("gob wrote an unexpected stream: %v", r.err)
	}
	msg := append(appendGobUint(nil, zigzag(imageTypeID)), b[int64(len(b))-r.c.Left():]...)
	return append(appendGobUint([]byte(imagePrefix), uint64(len(msg))), msg...)
}

// mirrorOf assembles the mirror of m's image from the sparse tables' own
// State calls, independently of the image writer.
func mirrorOf(m *Megh) imageV2 {
	s0, s1 := m.rng.state()
	c, b := m.cfg, m.b.State()
	vector := func(v sparse.VectorState) vectorV2 {
		return vectorV2{Dim: v.Dim, PackedIndex: v.PackedIndex, PackedValue: v.PackedValue}
	}
	return imageV2{
		Version: stateVersion,
		Config: configV2{NumVMs: c.NumVMs, NumHosts: c.NumHosts, Gamma: c.Gamma, Temp0: c.Temp0, Epsilon: c.Epsilon,
			MaxMigrationsFrac: c.MaxMigrationsFrac, UnderloadThreshold: c.UnderloadThreshold,
			ExplorationRate: c.ExplorationRate, Seed: c.Seed, NNZHistoryCap: c.NNZHistoryCap},
		Temp: m.temp,
		B: matrixV2{Dim: b.Dim, Diag: b.Diag, DropTol: b.DropTol,
			PackedRows: b.PackedRows, PackedCols: b.PackedCols, PackedVals: b.PackedVals, PackedDiag: b.PackedDiag},
		Z:            vector(m.z.State()),
		Theta:        vector(m.theta.Vector().State()),
		Pending:      append([]int(nil), m.pending...),
		PendingTotal: m.pendingTotal,
		StepCost:     m.stepCost,
		HaveCost:     m.haveCost,
		NNZHistory:   append([]int(nil), m.NNZHistory()...),
		RngState:     []uint64{s0, s1},
	}
}

// imageOf is m's checkpoint image, as WriteImage writes it.
func imageOf(tb testing.TB, m *Megh) []byte {
	tb.Helper()
	var img bytes.Buffer
	n, err := m.WriteImage(&img)
	if err != nil || n != int64(img.Len()) {
		tb.Fatalf("WriteImage reports %d bytes of a %d-byte image (err %v)", n, img.Len(), err)
	}
	return img.Bytes()
}

// savedMirror is the mirror of m's saved image.
func savedMirror(t testing.TB, m *Megh) imageV2 {
	t.Helper()
	return readMirror(t, imageOf(t, m))
}

// ageOneDay applies to a fresh learner what a simulated day leaves behind at
// 10 000 hosts: a chain of 398 transitions between seeded random actions
// (bench/README.md finding 2: 796 entries in 398 rows), each with a cost.
func ageOneDay(m *Megh) {
	x := uint64(m.cfg.NumVMs)
	next := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int(x>>33) % n
	}
	prev := next(m.d)
	for i := 0; i < 398; i++ {
		a := next(m.d)
		m.update(prev, a, 0.25+float64(i%5))
		prev = a
	}
}
