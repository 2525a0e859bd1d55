package invariant

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"megh/internal/core"
	"megh/internal/sparse"
)

// LSPIHealth probes a learner's sparse LSPI state against independent
// oracles. It shadows every applied Sherman–Morrison update into a dense
// mirror of T (the matrix B inverts), so at any point it can ask three
// questions the hot path itself never re-checks:
//
//  1. Inverse drift — ‖B·T − I‖∞ must stay near zero, and B must match the
//     dense Gauss–Jordan inverse of T entrywise. This is the end-to-end
//     audit of the structure-exploiting kernel plus its drop tolerance.
//  2. θ mirror — the incrementally-maintained dense θ must agree with a
//     fresh sparse B·z product.
//  3. Checkpoint round-trip — SaveState → LoadState → SaveState must be
//     byte-stable and preserve θ and the temperature exactly.
//
// The dense mirror costs O(1) per update and O(d³) per probe, so attach it
// to small configurations (the oracle relation it checks is dimension-
// independent). Probes run automatically every Every applied updates;
// the first failure is sticky and returned by Err and every later Probe.
type LSPIHealth struct {
	// Every is the auto-probe period in applied updates; ≤ 0 disables
	// auto-probing (Probe can still be called manually).
	Every int
	// DriftTol bounds ‖B·T − I‖∞ and the entrywise distance to the dense
	// inverse; zero means 1e-6.
	DriftTol float64

	m       *core.Megh
	t       *sparse.Dense
	applied int
	probes  int
	err     error
}

// AttachLSPIHealth installs the probe on m via its update hook and returns
// it. The learner must be freshly constructed (or freshly restored): the
// dense T mirror starts from the same δ·I the learner's B starts from, so
// attaching mid-stream would desynchronise the shadow.
func AttachLSPIHealth(m *core.Megh, every int) *LSPIHealth {
	d := m.Dim()
	h := &LSPIHealth{
		Every: every,
		m:     m,
		t:     sparse.NewDenseIdentity(d, float64(d)),
	}
	m.SetUpdateHook(h.onUpdate)
	return h
}

// onUpdate shadows one learner update: an applied Sherman–Morrison step
// means T gained the rank-1 term e_a·(e_a − γ·e_b)ᵀ. Rejected (singular)
// updates leave both B and the mirror untouched — that agreement is itself
// part of what the probes verify. The learner fires the hook only between
// complete rank-1 applications, so probing from here always sees B and the
// mirror in a mutually consistent state.
func (h *LSPIHealth) onUpdate(a, b, _ int, gamma, _ float64, applied bool) {
	if !applied {
		return
	}
	h.t.Add(a, a, 1)
	h.t.Add(a, b, -gamma)
	h.applied++
	if h.Every > 0 && h.applied%h.Every == 0 && h.err == nil {
		h.err = h.Probe()
	}
}

// Probes reports how many probes have run (manual and automatic).
func (h *LSPIHealth) Probes() int { return h.probes }

// Applied reports how many applied transitions the mirror has shadowed.
func (h *LSPIHealth) Applied() int { return h.applied }

// Err returns the first probe failure, or nil.
func (h *LSPIHealth) Err() error { return h.err }

// Probe runs all three health checks now and returns the first failure.
func (h *LSPIHealth) Probe() error {
	h.probes++
	b, z, theta, err := denseState(h.m)
	if err != nil {
		return err
	}
	if err := h.checkInverse(b); err != nil {
		return err
	}
	if err := h.checkTheta(b, z, theta); err != nil {
		return err
	}
	if err := h.checkCheckpoint(); err != nil {
		return err
	}
	return nil
}

// lspiImage is the part of a checkpoint image the probes read: gob matches
// fields by name, so decoding an image into it keeps B, z and θ and skips
// the rest.
type lspiImage struct {
	B        sparse.MatrixState
	Z, Theta sparse.VectorState
}

// denseState reads B, z and θ out of m's checkpoint image, dense.
func denseState(m *core.Megh) (b [][]float64, z, theta []float64, err error) {
	var img bytes.Buffer
	if err := m.SaveState(&img); err != nil {
		return nil, nil, nil, fmt.Errorf("invariant: checkpoint image: %w", err)
	}
	var st lspiImage
	if err := gob.NewDecoder(&img).Decode(&st); err != nil {
		return nil, nil, nil, fmt.Errorf("invariant: decoding checkpoint image: %w", err)
	}
	src, at := inImage(st.B.PackedRows, st.B.PackedCols, st.B.PackedVals, st.B.PackedDiag)
	bm, err := sparse.MatrixFromState(st.B, src, at)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("invariant: image B: %w", err)
	}
	src, at = inImage(st.Z.PackedIndex, st.Z.PackedValue, st.Theta.PackedIndex, st.Theta.PackedValue)
	if err := bm.RestoreCells(st.Z, st.Theta, src, at); err != nil {
		return nil, nil, nil, fmt.Errorf("invariant: image %w", err)
	}
	z, theta = make([]float64, bm.Dim()), make([]float64, bm.Dim())
	for i := range z {
		z[i], theta[i] = bm.Z(i), bm.Theta(i)
	}
	return bm.Dense(), z, theta, nil
}

// inImage lays packed lists end to end, as an image holds them: the source
// and the sections MatrixFromState and RestoreCells read them from.
func inImage(lists ...[]byte) (io.ReaderAt, []sparse.Section) {
	var img []byte
	at := make([]sparse.Section, len(lists))
	for i, l := range lists {
		at[i] = sparse.Section{Off: int64(len(img)), Len: int64(len(l))}
		img = append(img, l...)
	}
	return bytes.NewReader(img), at
}

func (h *LSPIHealth) tol() float64 {
	if h.DriftTol > 0 {
		return h.DriftTol
	}
	return 1e-6
}

// checkInverse verifies B is still T⁻¹ two ways: the residual ‖B·T − I‖∞
// and the entrywise distance to the dense Gauss–Jordan inverse.
func (h *LSPIHealth) checkInverse(b [][]float64) error {
	d := h.m.Dim()

	// Residual ‖B·T − I‖∞, the ∞-norm of the product minus identity.
	var norm float64
	for i := 0; i < d; i++ {
		var row float64
		for j := 0; j < d; j++ {
			var p float64
			for k, bik := range b[i] {
				if bik != 0 {
					p += bik * h.t.Get(k, j)
				}
			}
			if i == j {
				p -= 1
			}
			row += math.Abs(p)
		}
		if row > norm {
			norm = row
		}
	}
	if tol := h.tol(); norm > tol || math.IsNaN(norm) {
		return fmt.Errorf("invariant: ‖B·T − I‖∞ = %g exceeds %g after %d updates",
			norm, tol, h.applied)
	}

	inv, err := h.t.Invert()
	if err != nil {
		return fmt.Errorf("invariant: dense oracle cannot invert T after %d updates: %w", h.applied, err)
	}
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if diff := math.Abs(b[i][j] - inv.Get(i, j)); diff > h.tol() {
				return fmt.Errorf("invariant: B[%d,%d] = %g, Gauss–Jordan oracle = %g (|Δ| = %g)",
					i, j, b[i][j], inv.Get(i, j), diff)
			}
		}
	}
	return nil
}

// checkTheta verifies the dense θ mirror against a fresh B·z.
func (h *LSPIHealth) checkTheta(b [][]float64, z, got []float64) error {
	d := h.m.Dim()
	want := make([]float64, d)
	for i := 0; i < d; i++ {
		for k, bik := range b[i] {
			if bik != 0 {
				want[i] += bik * z[k]
			}
		}
	}
	for i := 0; i < d; i++ {
		scale := math.Max(1, math.Abs(want[i]))
		if diff := math.Abs(got[i] - want[i]); diff > h.tol()*scale {
			return fmt.Errorf("invariant: θ[%d] mirror %g vs B·z %g (|Δ| = %g)",
				i, got[i], want[i], diff)
		}
	}
	return nil
}

// checkCheckpoint verifies persistence is lossless: save → load → save is
// byte-stable, and the restored learner agrees on temperature and θ.
func (h *LSPIHealth) checkCheckpoint() error {
	var first, second bytes.Buffer
	if err := h.m.SaveState(&first); err != nil {
		return fmt.Errorf("invariant: checkpoint save: %w", err)
	}
	back, err := core.LoadState(bytes.NewReader(first.Bytes()))
	if err != nil {
		return fmt.Errorf("invariant: checkpoint load: %w", err)
	}
	if err := back.SaveState(&second); err != nil {
		return fmt.Errorf("invariant: checkpoint re-save: %w", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		return fmt.Errorf("invariant: checkpoint round-trip is not byte-stable")
	}
	if got, want := back.Temperature(), h.m.Temperature(); got != want {
		return fmt.Errorf("invariant: checkpoint temperature %g ≠ %g", got, want)
	}
	for i := 0; i < h.m.Dim(); i++ {
		if got, want := back.Theta(i), h.m.Theta(i); got != want {
			return fmt.Errorf("invariant: checkpoint θ[%d] %g ≠ %g", i, got, want)
		}
	}
	return nil
}
