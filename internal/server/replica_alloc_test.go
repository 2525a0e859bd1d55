//go:build !race

// The race detector's sync.Pool drops a share of what is put back, so the
// replica PUT's pooled buffers are measured only without it.

package server

import (
	"encoding/binary"
	"math"
	"net/http"
	"os"
	"testing"
)

// TestReplicaPutAllocsFlat: what a replica PUT allocates does not follow the
// image. A 4.7 MB image — half a million entries of B — lands within the
// same constant as a 2 KB one: the body goes to its temp file through a
// pooled buffer and is verified there through pooled windows, never held
// whole.
func TestReplicaPutAllocsFlat(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b")
	small := doctoredImage(t, nil)
	big := doctoredImage(t, func(im *imageMirror) {
		const nVMs, nHosts, rows, cols = 1000, 100, 512, 1024
		im.Config.NumVMs, im.Config.NumHosts = nVMs, nHosts
		im.B.Dim, im.Z.Dim, im.Theta.Dim = nVMs*nHosts, nVMs*nHosts, nVMs*nHosts
		im.B.PackedRows, im.B.PackedCols, im.B.PackedVals = nil, nil, nil
		for r := 0; r < rows; r++ {
			im.B.PackedRows = binary.AppendUvarint(binary.AppendUvarint(im.B.PackedRows, uint64(min(r, 1))), cols)
			for c := 0; c < cols; c++ {
				im.B.PackedCols = binary.AppendUvarint(im.B.PackedCols, uint64(min(c, 1)))
				im.B.PackedVals = binary.LittleEndian.AppendUint64(im.B.PackedVals, math.Float64bits(0.5+float64(c)))
			}
		}
	})
	if len(big) < 4<<20 {
		t.Fatalf("the big image is %d bytes", len(big))
	}
	put := func(id string, img []byte) uint64 {
		var status int
		var body string
		got := allocatedBy(func() { status, body = putReplicaRaw(t, tc.urls["a"], id, img) })
		if status != http.StatusOK {
			t.Fatalf("%d-byte image: HTTP %d: %s", len(img), status, body)
		}
		if stored, err := os.Stat(tc.svcs["a"].cluster.replicaPath(id)); err != nil || stored.Size() != int64(len(img)) {
			t.Fatalf("%d-byte image did not land whole (err %v)", len(img), err)
		}
		return got
	}
	put("warm", small) // the listener, the handler's lazily built state, the pools
	for _, img := range [][]byte{small, big} {
		if got := put("flat", img); got > replicaPutAllocs {
			t.Fatalf("a PUT of a %d-byte image allocated %d bytes (limit %d)", len(img), got, replicaPutAllocs)
		}
	}
}
