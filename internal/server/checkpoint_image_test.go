package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"megh/internal/core"
	"megh/internal/sparse"
)

// TestCheckpointImageIdentity: one checkpoint is one image. Under
// concurrent POST …/checkpoint calls racing decides (so successive images
// differ) and asynchronous replication, the bytes a checkpoint lands on
// disk are the bytes its response counts and the bytes its replica push
// ships — the successor receives every checkpoint's own image exactly
// once, never a later one re-read from the path.
func TestCheckpointImageIdentity(t *testing.T) {
	tc := newTestClusterTuned(t, 2, func(cc *ClusterConfig) { cc.SyncReplicate = false }, "a", "b")
	id := tc.idOwnedBy(t, "a", "a")
	owner := tc.svcs["a"]
	if resp := doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}

	// The hook runs under the session lock, right after the rename: what is
	// at the path now is what this checkpoint wrote.
	var mu sync.Mutex
	var wrote, pushed [][sha256.Size]byte
	var wroteLens []int
	replicate := owner.mgr.onCheckpoint
	owner.mgr.onCheckpoint = func(sid, path string) {
		img, err := os.ReadFile(path)
		if err != nil || path != owner.mgr.checkpointPath(sid) {
			t.Errorf("the hook was handed %s, not the session's checkpoint (err=%v)", path, err)
		}
		mu.Lock()
		wrote = append(wrote, sha256.Sum256(img))
		wroteLens = append(wroteLens, len(img))
		mu.Unlock()
		replicate(sid, path)
	}
	// Record what the successor is sent.
	inner := tc.svcs["b"].Handler()
	tc.servers["b"].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v2/cluster/replicas/") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("reading pushed replica: %v", err)
			}
			mu.Lock()
			pushed = append(pushed, sha256.Sum256(body))
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	})

	const workers, rounds = 4, 12
	var respLens []int
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := NewClient(tc.urls["a"], nil).Session(id)
			for i := 0; i < rounds; i++ {
				step := g*rounds + i
				if _, err := sc.Decide(context.Background(), sessionWorld(4, 3, step)); err != nil {
					t.Errorf("decide: %v", err)
					return
				}
				if err := sc.Feedback(context.Background(), FeedbackRequest{Step: step, StepCost: 0.3}); err != nil {
					t.Errorf("feedback: %v", err)
					return
				}
				resp, err := sc.Checkpoint(context.Background())
				if err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
				mu.Lock()
				respLens = append(respLens, resp.Bytes)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	owner.WaitReplication()

	if len(wrote) != workers*rounds || len(pushed) != len(wrote) {
		t.Fatalf("%d checkpoints answered, %d written, %d pushed", workers*rounds, len(wrote), len(pushed))
	}
	sort.Ints(respLens)
	sort.Ints(wroteLens)
	if fmt.Sprint(respLens) != fmt.Sprint(wroteLens) {
		t.Fatalf("response sizes %v are not the written image sizes %v", respLens, wroteLens)
	}
	count := map[[sha256.Size]byte]int{}
	for _, h := range wrote {
		count[h]++
	}
	if len(count) < 2 {
		t.Fatal("every checkpoint wrote the same image; the test distinguishes nothing")
	}
	for _, h := range pushed {
		count[h]--
	}
	for h, n := range count {
		if n != 0 {
			t.Fatalf("image %x was written %d more times than it was pushed", h[:6], n)
		}
	}
	final, err := os.ReadFile(owner.mgr.checkpointPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if got := owner.Metrics().Gauge("megh_checkpoint_bytes", "", nil).Value(); int(got) != len(final) {
		t.Fatalf("megh_checkpoint_bytes = %v, the last image is %d bytes", got, len(final))
	}
}

// holdFirstReplicaPut holds the first replica PUT sent through it, before
// the transport has read a byte of its body, until release is closed.
type holdFirstReplicaPut struct {
	once          sync.Once
	held, release chan struct{}
}

func (h *holdFirstReplicaPut) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v2/cluster/replicas/") {
		first := false
		h.once.Do(func() { first = true })
		if first {
			close(h.held)
			<-h.release
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestCheckpointHeldPushShipsItsOwnImage: an asynchronous replica push held
// until a newer checkpoint has renamed its image over the path still ships
// the image of the checkpoint that started it — the push reads the file it
// opened under the session lock, never the path.
func TestCheckpointHeldPushShipsItsOwnImage(t *testing.T) {
	hold := &holdFirstReplicaPut{held: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(hold.release) }) }
	t.Cleanup(release)
	tc := newTestClusterTuned(t, 2, func(cc *ClusterConfig) {
		cc.SyncReplicate = false
		cc.HTTPClient = &http.Client{Transport: hold}
	}, "a", "b")
	id := tc.idOwnedBy(t, "a", "a")
	owner := tc.svcs["a"]
	if resp := doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	landed := make(chan []byte, 2) // one per checkpoint below
	inner := tc.svcs["b"].Handler()
	tc.servers["b"].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v2/cluster/replicas/") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("reading pushed replica: %v", err)
			}
			landed <- body
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	})

	sc := NewClient(tc.urls["a"], nil).Session(id)
	checkpoint := func(step int) []byte {
		t.Helper()
		ctx := context.Background()
		if _, err := sc.Decide(ctx, sessionWorld(4, 3, step)); err != nil {
			t.Fatal(err)
		}
		if err := sc.Feedback(ctx, FeedbackRequest{Step: step, StepCost: 0.3}); err != nil {
			t.Fatal(err)
		}
		resp, err := sc.Checkpoint(ctx)
		if err != nil {
			t.Fatal(err)
		}
		img, err := os.ReadFile(resp.Path)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	older := checkpoint(0)
	<-hold.held
	newer := checkpoint(1)
	if bytes.Equal(older, newer) {
		t.Fatal("both checkpoints wrote the same image; the test distinguishes nothing")
	}
	if got := <-landed; !bytes.Equal(got, newer) {
		t.Fatal("the newer checkpoint's push did not ship the newer image")
	}
	release()
	if got := <-landed; !bytes.Equal(got, older) {
		t.Fatal("the push held past a newer checkpoint shipped another image than its own")
	}
	owner.WaitReplication()
}

// failAt passes writes through to w until byte k, and fails the write that
// reaches it.
type failAt struct {
	w       io.Writer
	k, done int
}

var errFailAt = errors.New("write failed")

func (f *failAt) Write(p []byte) (int, error) {
	if f.done+len(p) <= f.k {
		f.done += len(p)
		return f.w.Write(p)
	}
	n, _ := f.w.Write(p[:f.k-f.done])
	f.done += n
	return n, errFailAt
}

// TestCheckpointWriteFailsPartWay: a checkpoint whose write fails at byte k
// — in the image's framing, in a packed list, in its tail — returns the
// error, leaves the previous image byte-identical with no temp file beside
// it, is counted in megh_checkpoint_errors_total, and starts no replica
// push.
func TestCheckpointWriteFailsPartWay(t *testing.T) {
	tc := newTestClusterTuned(t, 2, func(cc *ClusterConfig) { cc.SyncReplicate = false }, "a", "b")
	id := tc.idOwnedBy(t, "a", "a")
	owner := tc.svcs["a"]
	if resp := doJSON(t, http.MethodPut, tc.urls["a"]+"/v2/sessions/"+id, clusterSpec, nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	c := NewClient(tc.urls["a"], nil)
	c.SetRetryPolicy(1, 0) // a retried failure would count twice
	sc := c.Session(id)
	ctx := context.Background()
	for step := 0; step < 6; step++ {
		if _, err := sc.Decide(ctx, sessionWorld(4, 3, step)); err != nil {
			t.Fatal(err)
		}
		if err := sc.Feedback(ctx, FeedbackRequest{Step: step, StepCost: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := sc.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	owner.WaitReplication()
	good, err := os.ReadFile(resp.Path)
	if err != nil {
		t.Fatal(err)
	}
	reg := owner.Metrics()
	errs := reg.Counter("megh_checkpoint_errors_total", "", nil)
	pushes := func() int64 {
		return reg.Counter("megh_cluster_replications_total", "", nil).Value() +
			reg.Counter("megh_cluster_replication_errors_total", "", nil).Value()
	}
	before, pushedBefore := errs.Value(), pushes()
	// The learner has not moved, so each failed write was of good's bytes:
	// whatever it renamed over good would be a prefix of it.
	for _, k := range []int{0, len(good) / 4, len(good) / 2, len(good) - 1} {
		owner.mgr.writeFile = func(path string, write func(io.Writer) (int64, error)) (int64, error) {
			return core.WriteFileAtomic(path, func(w io.Writer) (int64, error) { return write(&failAt{w: w, k: k}) })
		}
		if _, err := sc.Checkpoint(ctx); err == nil || !strings.Contains(err.Error(), errFailAt.Error()) {
			t.Fatalf("k=%d: a checkpoint whose write failed answered err %v", k, err)
		}
		owner.WaitReplication()
		if after, err := os.ReadFile(resp.Path); err != nil || !bytes.Equal(after, good) {
			t.Fatalf("k=%d: the failed write disturbed the previous image (err=%v)", k, err)
		}
		if leftovers, _ := filepath.Glob(resp.Path + ".tmp-*"); len(leftovers) != 0 {
			t.Fatalf("k=%d: stray temp files: %v", k, leftovers)
		}
	}
	if got := errs.Value() - before; got != 4 {
		t.Fatalf("megh_checkpoint_errors_total moved by %d over four failed writes", got)
	}
	if got := pushes() - pushedBefore; got != 0 {
		t.Fatalf("%d replica pushes started after failed checkpoints", got)
	}
}

// imageMirror spells out the version-2 checkpoint image's types field for
// field, the retired fields included, so gob — the test's oracle — reads a
// real image into it and writes a doctored one back.
type imageMirror struct {
	Version      int
	Config       configMirror
	Temp         float64
	B            matrixMirror
	Z, Theta     vectorMirror
	Pending      []int
	PendingTotal int
	StepCost     float64
	HaveCost     bool
	NNZHistory   []int
	Deferred     []deferredMirror
	DeferAge     int
	RngSeed      int64
	RngState     []uint64
}

type configMirror struct {
	NumVMs, NumHosts                         int
	Gamma, Temp0, Epsilon, MaxMigrationsFrac float64
	UnderloadThreshold, ExplorationRate      float64
	Seed                                     int64
	NNZHistoryCap                            int
	DeferThreshold                           float64
	DeferMaxAge                              int
}

type matrixMirror struct {
	Dim                                            int
	Diag, DropTol                                  float64
	PackedRows, PackedCols, PackedVals, PackedDiag []byte
	Triplets                                       []sparse.Triplet
	OverriddenDiag                                 []int
}

type vectorMirror struct {
	Dim                      int
	PackedIndex, PackedValue []byte
	Index                    []int
	Value                    []float64
}

// deferredMirror is an entry of the queue the removed deferred-update mode
// kept in the image.
type deferredMirror struct {
	A, B, N int
	C       float64
}

// doctoredImage saves a learner that has taken a few updates and returns
// its image after edit has been at it (edit may be nil): gob's value
// message for the edited mirror, reframed under the real image's type
// definitions and type id, so the image is canonical up to the edit.
func doctoredImage(t *testing.T, edit func(*imageMirror)) []byte {
	t.Helper()
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	post := func(path string, body any) {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		if rec.Code/100 != 2 {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	for step := 0; step < 6; step++ {
		post("/v2/sessions/default/decide", sessionWorld(4, 3, step))
		post("/v2/sessions/default/feedback", FeedbackRequest{Step: step, StepCost: 0.5})
	}
	var raw bytes.Buffer
	if err := svc.def.learner.SaveState(&raw); err != nil {
		t.Fatal(err)
	}
	if edit == nil {
		return raw.Bytes()
	}
	img := readMirror(t, raw.Bytes())
	if len(img.B.PackedCols) < 2 || len(img.B.PackedVals) < 16 {
		t.Fatalf("warm-up left too small a Q-table to doctor (%d column bytes)", len(img.B.PackedCols))
	}
	edit(&img)
	doctored := reframe(t, raw.Bytes(), img)
	if !bytes.Equal(reframe(t, raw.Bytes(), readMirror(t, doctored)), doctored) {
		t.Fatal("imageMirror does not follow the image's type definitions: the edit reads back as another")
	}
	return doctored
}

func readMirror(t *testing.T, img []byte) imageMirror {
	t.Helper()
	var im imageMirror
	if err := gob.NewDecoder(bytes.NewReader(img)).Decode(&im); err != nil {
		t.Fatal(err)
	}
	return im
}

// reframe is gob's value message for im under real's type definitions and
// type id.
func reframe(t *testing.T, real []byte, im imageMirror) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(im); err != nil {
		t.Fatal(err)
	}
	defs, head := splitImage(t, real)
	_, msg := splitImage(t, out.Bytes())
	_, id := gobUint(head)
	_, skip := gobUint(msg)
	body := append(head[:id:id], msg[skip:]...)
	return append(append(defs[:len(defs):len(defs)], putGobUint(nil, uint64(len(body)))...), body...)
}

func putReplicaRaw(t *testing.T, base, id string, img []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v2/cluster/replicas/"+id, bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// allocatedBy reports the bytes the whole process allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplicaPutMalformedImagesLeaveGoodReplicaIntact: every malformed
// image is answered 400 in the words core.VerifyImage uses, naming the
// field or list at fault and never gob, and the good replica already stored
// under that id is byte-identical after.
func TestReplicaPutMalformedImagesLeaveGoodReplicaIntact(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b")
	good := doctoredImage(t, nil)
	if status, body := putReplicaRaw(t, tc.urls["a"], "victim", good); status != http.StatusOK {
		t.Fatalf("good replica PUT: HTTP %d: %s", status, body)
	}
	path := tc.svcs["a"].cluster.replicaPath("victim")
	refuses := func(t *testing.T, img []byte, want string) {
		t.Helper()
		status, body := putReplicaRaw(t, tc.urls["a"], "victim", img)
		verr := core.VerifyImage(img)
		if status != http.StatusBadRequest || verr == nil || !strings.Contains(body, want) ||
			body != fmt.Sprintf("{%q:%q}\n", "error", "replica image is not a valid checkpoint: "+verr.Error()) {
			t.Fatalf("HTTP %d %s; want 400 naming %q in VerifyImage's words (%v)", status, body, want, verr)
		}
		if strings.Contains(body, "gob") {
			t.Fatalf("the refusal %s speaks of gob, not of the image", body)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, good) {
			t.Fatalf("the good replica was disturbed (err=%v)", err)
		}
	}

	for name, tc2 := range map[string]struct {
		edit func(*imageMirror)
		want string
	}{
		"duplicate column":    {func(im *imageMirror) { im.B.PackedCols[1] = 0 }, "PackedCols repeats"},
		"column out of range": {func(im *imageMirror) { im.B.PackedCols[0] = 0x7f }, "PackedCols"},
		"row out of range":    {func(im *imageMirror) { im.B.PackedRows[0] = 0x7f }, "PackedRows"},
		"length mismatch":     {func(im *imageMirror) { im.B.PackedVals = im.B.PackedVals[8:] }, "PackedRows gives row"},
		"stored zero":         {func(im *imageMirror) { copy(im.B.PackedVals, make([]byte, 8)) }, "PackedVals stores a zero"},
		"truncated values":    {func(im *imageMirror) { im.B.PackedVals = im.B.PackedVals[:len(im.B.PackedVals)-3] }, "PackedVals is"},
		"truncated columns":   {func(im *imageMirror) { im.B.PackedCols = im.B.PackedCols[:1] }, "PackedCols is truncated"},
		"theta duplicate":     {func(im *imageMirror) { im.Theta.PackedIndex[1] = 0 }, "restoring θ: sparse: vector PackedIndex repeats"},
		"version 1 number":    {func(im *imageMirror) { im.Version = 3 }, "version 3"},
		// An image as a version-1 build wrote it: B element by element under
		// the old number. This build reads only version 2, and says so first.
		"version-1 image": {func(im *imageMirror) {
			im.Version, im.B.Triplets = 1, []sparse.Triplet{{Row: 0, Col: 1, Val: 2}}
			im.B.PackedRows, im.B.PackedCols, im.B.PackedVals, im.B.PackedDiag = nil, nil, nil, nil
		}, "learner state version 1, this build reads only version 2"},
		// The retired fields: the image's definitions still name them, and
		// any image that sets one is refused naming it.
		"both forms":             {func(im *imageMirror) { im.B.Triplets = []sparse.Triplet{{Row: 0, Col: 1, Val: 2}} }, "MatrixState.Triplets is set"},
		"retired OverriddenDiag": {func(im *imageMirror) { im.B.OverriddenDiag = []int{1} }, "MatrixState.OverriddenDiag is set"},
		"retired Index":          {func(im *imageMirror) { im.Z.Index = []int{1} }, "VectorState.Index is set"},
		"retired Value":          {func(im *imageMirror) { im.Theta.Value = []float64{0.5} }, "VectorState.Value is set"},
		"retired RngSeed":        {func(im *imageMirror) { im.RngSeed = 12345 }, "RngSeed is set"},
		"retired Deferred":       {func(im *imageMirror) { im.Deferred = []deferredMirror{{A: 1, B: 2, N: 1, C: 0.5}} }, "Deferred is set, a retired field this build refuses"},
		"retired DeferAge":       {func(im *imageMirror) { im.DeferAge = 3 }, "DeferAge is set, a retired field this build refuses"},
		"retired DeferThreshold": {func(im *imageMirror) { im.Config.DeferThreshold = 1e-3 }, "Config.DeferThreshold is set"},
		"retired DeferMaxAge":    {func(im *imageMirror) { im.Config.DeferMaxAge = 8 }, "Config.DeferMaxAge is set"},
	} {
		t.Run(name, func(t *testing.T) { refuses(t, doctoredImage(t, tc2.edit), tc2.want) })
	}

	// These are cut from the real image by hand, to break the value
	// message's own framing where no mirror can: each is refused by the
	// reader check it names.
	defs, msg := splitImage(t, good)
	im := readMirror(t, good)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	frame := func(msg []byte) []byte { return cat(defs, putGobUint(nil, uint64(len(msg))), msg) }
	// B's PackedVals, with its length in front.
	valsLen := putGobUint(nil, uint64(len(im.B.PackedVals)))
	vals := bytes.Index(msg, im.B.PackedVals)
	// The tail: RngState's two words, and the struct's closing 0.
	rng := cat(putGobUint(nil, 2), putGobUint(nil, im.RngState[0]), putGobUint(nil, im.RngState[1]), []byte{0})
	// The head: the type id, then Version 2 and Config's first field, NumVMs 4.
	_, id := gobUint(msg)
	if vals < len(valsLen) || !bytes.HasSuffix(msg[:vals], valsLen) || !bytes.HasSuffix(msg, rng) ||
		!bytes.HasPrefix(msg[id:], []byte{1, 2 << 1, 1, 1, 4 << 1}) {
		t.Fatal("the image is not laid out as this test expects")
	}
	numVMs := id + 4
	for name, c := range map[string]struct {
		img  []byte
		want string
	}{
		"truncated value message":     {frame(msg[:len(msg)/2]), "decoding learner state: byte"},
		"message length past the end": {cat(defs, putGobUint(nil, uint64(len(msg)+1)), msg), fmt.Sprintf("a message of %d bytes, %d left", len(msg)+1, len(msg))},
		"field past the struct's end": {frame(cat(msg[:len(msg)-1], []byte{1})), "a field number past the last of 15"},
		"bytes past the end": {frame(cat(msg[:vals-len(valsLen)], putGobUint(nil, uint64(len(msg))), msg[vals:])),
			fmt.Sprintf("a list of %d elements", len(msg))},
		"three-word RngState": {frame(cat(msg[:len(msg)-len(rng)], putGobUint(nil, 3), rng[1:len(rng)-1], []byte{0, 0})),
			"persisted RNG state has 3 words, want 2"},
		"overlong uint in Config": {frame(cat(msg[:numVMs], []byte{0xf7}, make([]byte, 9), msg[numVMs+1:])),
			"a truncated or overlong integer"},
		"trailing bytes": {cat(good, []byte{0, 0}), "decoding learner state: 2 bytes after the image"},
		// Padding inside the value message, after the state's closing 0,
		// which gob's decoder skipped without a word.
		"trailing bytes in message": {frame(cat(msg, []byte{0})), "1 bytes after the state"},
		"another type id":           {frame(cat(putGobUint(nil, 66<<1), msg[id:])), "not a version-2 image"},
	} {
		t.Run(name, func(t *testing.T) { refuses(t, c.img, c.want) })
	}

	if leftovers, _ := filepath.Glob(path + ".tmp-*"); len(leftovers) != 0 {
		t.Fatalf("stray temp files: %v", leftovers)
	}
}

// splitImage cuts a checkpoint image into the type definitions gob sends
// ahead of the value and the value message, its length left off.
func splitImage(t *testing.T, img []byte) (defs, msg []byte) {
	t.Helper()
	for off := 0; off < len(img); {
		n, w := gobUint(img[off:])
		end := off + w + int(n)
		if w == 0 || end > len(img) {
			break
		}
		if end == len(img) {
			return img[:off], img[off+w:]
		}
		off = end
	}
	t.Fatal("not a gob stream")
	return nil, nil
}

// gobUint reads one of gob's unsigned integers from the front of b: the
// value, and how many bytes it took (0 if b does not start with one).
func gobUint(b []byte) (uint64, int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	if n > 8 || n >= len(b) {
		return 0, 0
	}
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// putGobUint appends x as gob codes an unsigned integer: below 128 the
// byte itself, else the negated byte count and the big-endian bytes.
func putGobUint(b []byte, x uint64) []byte {
	if x <= 0x7f {
		return append(b, byte(x))
	}
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], x)
	skip := bits.LeadingZeros64(x) / 8
	return append(append(b, byte(skip-8)), be[skip:]...)
}

// replicaPutAllocs bounds what one replica PUT makes the whole process
// allocate — client, transport, handler and the file write together —
// whatever the image's size or the world it declares.
const replicaPutAllocs = 256 << 10

// TestReplicaPutHostileSizes: what a PUT makes the successor allocate
// follows neither the world the image declares nor the length the header
// declares (TestReplicaPutAllocsFlat: nor the bytes the sender really sent).
func TestReplicaPutHostileSizes(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b")
	// Warm the listener and the handler's lazily built state, so the
	// measurements below see the requests alone.
	if status, body := putReplicaRaw(t, tc.urls["a"], "warm", doctoredImage(t, nil)); status != http.StatusOK {
		t.Fatalf("warm-up PUT: HTTP %d: %s", status, body)
	}

	// A valid image of a fresh learner for the largest world the learner
	// accepts (2²⁰ VMs × 128 hosts, d = 2²⁷): restoring it would take
	// 64 MiB of page tables; storing it must not.
	fresh := func(nVMs, nHosts int) []byte {
		return doctoredImage(t, func(im *imageMirror) {
			im.Config.NumVMs, im.Config.NumHosts = nVMs, nHosts
			im.B = matrixMirror{Dim: nVMs * nHosts, Diag: im.B.Diag, DropTol: im.B.DropTol}
			im.Z = vectorMirror{Dim: nVMs * nHosts}
			im.Theta = vectorMirror{Dim: nVMs * nHosts}
			im.Pending, im.PendingTotal, im.NNZHistory = nil, 0, nil
		})
	}
	huge := fresh(1<<20, 128)
	var status int
	var body string
	got := allocatedBy(func() { status, body = putReplicaRaw(t, tc.urls["a"], "huge", huge) })
	if status != http.StatusOK {
		t.Fatalf("image of a fresh huge learner: HTTP %d: %s", status, body)
	}
	// One page table alone would be 32 MiB.
	if got > replicaPutAllocs {
		t.Fatalf("a %d-byte image made the process allocate %d bytes (limit %d)", len(huge), got, replicaPutAllocs)
	}

	// The same image declaring a 10⁵ × 10⁵ world — d = 10¹⁰, past the
	// learner's ceiling — is refused as cheaply, and nothing lands: promoting
	// it would have asked for an 80 GB θ.
	hostile := fresh(100000, 100000)
	got = allocatedBy(func() { status, body = putReplicaRaw(t, tc.urls["a"], "hostile", hostile) })
	if status != http.StatusBadRequest || !strings.Contains(body, "exceed the ceiling") {
		t.Fatalf("image of a 10⁵ × 10⁵ learner: HTTP %d: %s", status, body)
	}
	if got > replicaPutAllocs {
		t.Fatalf("refusing a %d-byte image made the process allocate %d bytes (limit %d)", len(hostile), got, replicaPutAllocs)
	}
	if _, err := os.Stat(tc.svcs["a"].cluster.replicaPath("hostile")); !os.IsNotExist(err) {
		t.Fatal("an image past the world-size ceiling landed in the replica store")
	}

	// A header declaring maxReplicaBytes in front of 1 KB of body.
	u, err := url.Parse(tc.urls["a"])
	if err != nil {
		t.Fatal(err)
	}
	const sent = 1024
	var reply []byte
	got = allocatedBy(func() { reply = rawSend(t, u.Host, http.MethodPut, "/v2/cluster/replicas/liar", maxReplicaBytes, sent) })
	if !bytes.HasPrefix(reply, []byte("HTTP/1.1 400")) {
		t.Fatalf("short body under a 1 GiB header answered %q, want 400", firstLine(reply))
	}
	if got > replicaPutAllocs {
		t.Fatalf("%d bytes under a %d-byte header made the process allocate %d bytes (limit %d)",
			sent, maxReplicaBytes, got, replicaPutAllocs)
	}
	if _, err := os.Stat(tc.svcs["a"].cluster.replicaPath("liar")); !os.IsNotExist(err) {
		t.Fatal("a truncated body landed in the replica store")
	}

	// A header declaring more than the cap is refused outright.
	if reply := rawSend(t, u.Host, http.MethodPut, "/v2/cluster/replicas/big", maxReplicaBytes+1, 16); !bytes.HasPrefix(reply, []byte("HTTP/1.1 413")) {
		t.Fatalf("oversize declaration answered %q, want 413", firstLine(reply))
	}
}

// TestReplicaPutFailureMatrix: a PUT that cannot land is answered as what
// failed — a body cut short under its declared length, a malformed image
// and a valid one with bytes after it 400, a replica path the rename cannot
// take 500 — and leaves no temp file in the replica directory and the good
// replica already stored there byte for byte.
func TestReplicaPutFailureMatrix(t *testing.T) {
	tc := newTestCluster(t, 2, "a", "b")
	good := doctoredImage(t, nil)
	if status, body := putReplicaRaw(t, tc.urls["a"], "victim", good); status != http.StatusOK {
		t.Fatalf("good replica PUT: HTTP %d: %s", status, body)
	}
	c := tc.svcs["a"].cluster
	path, blocked := c.replicaPath("victim"), c.replicaPath("blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "inside"), 0o755); err != nil {
		t.Fatal(err)
	}
	u, err := url.Parse(tc.urls["a"])
	if err != nil {
		t.Fatal(err)
	}
	malformed := doctoredImage(t, func(im *imageMirror) { im.B.PackedCols[1] = 0 })
	verr := core.VerifyImage(malformed)
	if verr == nil {
		t.Fatal("the doctored image verifies")
	}
	for name, c := range map[string]struct {
		put    func() string // the reply's status line and body
		status string
		body   string
	}{
		"short body": {func() string {
			return string(rawSend(t, u.Host, http.MethodPut, "/v2/cluster/replicas/victim", int64(len(good)), len(good)/2))
		}, "400", "reading replica image: unexpected EOF"},
		"malformed image": {func() string { return putReply(t, tc.urls["a"], "victim", malformed) },
			"400", fmt.Sprintf("{%q:%q}\n", "error", "replica image is not a valid checkpoint: "+verr.Error())},
		"trailing bytes": {func() string { return putReply(t, tc.urls["a"], "victim", append(bytes.Clone(good), 0, 0)) },
			"400", "decoding learner state: 2 bytes after the image"},
		"rename fails": {func() string { return putReply(t, tc.urls["a"], "blocked", good) }, "500", "storing replica"},
	} {
		t.Run(name, func(t *testing.T) {
			reply := c.put()
			if !strings.HasPrefix(reply, "HTTP/1.1 "+c.status) || !strings.Contains(reply, c.body) {
				t.Fatalf("answered %q, want %s naming %q", reply, c.status, c.body)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, good) {
				t.Fatalf("the good replica was disturbed (err=%v)", err)
			}
			if leftovers, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp-*")); len(leftovers) != 0 {
				t.Fatalf("stray temp files: %v", leftovers)
			}
		})
	}
	if _, err := os.Stat(filepath.Join(blocked, "inside")); err != nil {
		t.Fatalf("the directory in the replica's way was disturbed: %v", err)
	}
}

// putReply PUTs img as the replica id and returns the reply's status line
// and body.
func putReply(t *testing.T, base, id string, img []byte) string {
	t.Helper()
	status, body := putReplicaRaw(t, base, id, img)
	return fmt.Sprintf("HTTP/1.1 %d %s\r\n\r\n%s", status, http.StatusText(status), body)
}

// TestSessionPutHostileSizes: a session PUT is sixty bytes that size every
// table of a learner. A world past the learner's ceilings is answered 400
// before anything is sized by it; the largest grid in use costs what an
// empty learner holds, not N·M.
func TestSessionPutHostileSizes(t *testing.T) {
	svc, ts := newSessionService(t, 0)
	put := func(id, spec string) (int, string) {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v2/sessions/"+id, strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if status, body := put("warm", `{"num_vms":4,"num_hosts":3}`); status != http.StatusCreated {
		t.Fatalf("warm-up PUT: HTTP %d: %s", status, body)
	}

	for name, spec := range map[string]string{
		"product": `{"num_vms":100000,"num_hosts":100000}`, // 480 GB of tables at the parent commit
		"vms":     `{"num_vms":134217728,"num_hosts":1}`,   // under the product ceiling, 6 GB of per-VM scratch
		"hosts":   `{"num_vms":1,"num_hosts":134217728}`,
		"int":     `{"num_vms":4611686018427387904,"num_hosts":4}`,
	} {
		var status int
		var body string
		got := allocatedBy(func() { status, body = put("hostile-"+name, spec) })
		if status != http.StatusBadRequest || !strings.Contains(body, "exceed") {
			t.Fatalf("%s: HTTP %d: %s", name, status, body)
		}
		if got > 1<<20 {
			t.Fatalf("%s: refusing %s made the process allocate %d bytes", name, spec, got)
		}
		if _, err := svc.mgr.get("hostile-" + name); err == nil {
			t.Fatalf("%s: the refused session is defined", name)
		}
	}

	var status int
	var body string
	got := allocatedBy(func() { status, body = put("grid", `{"num_vms":1000,"num_hosts":10000}`) })
	if status != http.StatusCreated {
		t.Fatalf("10 000 × 1 000 session: HTTP %d: %s", status, body)
	}
	// Two page tables of 2.4 MiB, per-host scratch 0.7 MiB, the session's
	// trace ring and registry; the dense tables were 810 MB.
	if got > 8<<20 {
		t.Fatalf("creating a 10 000 × 1 000 session allocated %d bytes", got)
	}
}

// rawSend sends a request whose Content-Length says declared but whose body
// is sent bytes long, and returns the raw reply. net/http's client refuses to
// send such a request, hence the bare connection.
func rawSend(t *testing.T, host, method, path string, declared int64, sent int) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n",
		method, path, host, declared)
	// A server that refuses on the header alone may hang up before the body
	// is out; the reply is what the callers judge.
	_, _ = conn.Write(bytes.Repeat([]byte{'x'}, sent))
	_ = conn.(*net.TCPConn).CloseWrite()
	reply, _ := io.ReadAll(conn)
	return reply
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\r'); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}

// TestReadImage pins the body reader's growth policy on its own.
func TestReadImage(t *testing.T) {
	payload := bytes.Repeat([]byte("megh"), 3<<18) // 3 MiB
	for name, declared := range map[string]int64{
		"honest": int64(len(payload)), "undeclared": -1, "understated": 10, "overstated": 1 << 29,
	} {
		got, err := readBody(bytes.NewReader(payload), declared, maxReplicaBytes, nil)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: read %d bytes, err %v", name, len(got), err)
		}
	}
	// An honest length up to the step is read in place: one buffer.
	small := payload[:bodyReadStep/2]
	if n := testing.AllocsPerRun(5, func() {
		if _, err := readBody(bytes.NewReader(small), int64(len(small)), maxReplicaBytes, nil); err != nil {
			t.Fatal(err)
		}
	}); n > 2 { // the buffer and the bytes.Reader
		t.Fatalf("an honestly declared image took %.0f allocations to read", n)
	}
	var tooLarge *http.MaxBytesError
	if _, err := readBody(bytes.NewReader(payload), maxReplicaBytes+1, maxReplicaBytes, nil); !errors.As(err, &tooLarge) {
		t.Fatalf("oversize declaration: err %v", err)
	}
}

// TestCheckpointFailuresAreCounted: a checkpoint that cannot land leaves the
// previous image alone and shows in megh_checkpoint_errors_total on every
// path that writes one — the explicit call, CheckpointAll and eviction,
// which used to swallow it.
func TestCheckpointFailuresAreCounted(t *testing.T) {
	svc, ts := newSessionService(t, 0)
	c := NewClient(ts.URL, nil)
	c.SetRetryPolicy(1, 0) // a retried failure would count twice
	sc := c.Session("tenant")
	ctx := context.Background()
	if _, err := sc.Create(ctx, SessionSpec{NumVMs: 4, NumHosts: 3, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Decide(ctx, testWorld(4, 3, true)); err != nil {
		t.Fatal(err)
	}
	resp, err := sc.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(resp.Path)
	if err != nil || len(good) != resp.Bytes {
		t.Fatalf("checkpoint reports %d bytes, file has %d (err=%v)", resp.Bytes, len(good), err)
	}
	reg := svc.Metrics()
	errs := reg.Counter("megh_checkpoint_errors_total", "", nil)
	took := reg.Histogram("megh_checkpoint_seconds", "", nil)
	if errs.Value() != 0 || took.Count() != 1 || reg.Gauge("megh_checkpoint_bytes", "", nil).Value() != float64(len(good)) {
		t.Fatalf("after one good checkpoint: errors %d, timed %d, bytes gauge %v",
			errs.Value(), took.Count(), reg.Gauge("megh_checkpoint_bytes", "", nil).Value())
	}

	// Point the session at a directory that does not exist.
	sess, err := svc.mgr.get("tenant")
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	sess.ckptPath = filepath.Join(filepath.Dir(resp.Path), "missing", "tenant.ckpt")
	sess.mu.Unlock()

	if _, err := sc.Checkpoint(ctx); err == nil {
		t.Fatal("checkpoint into a missing directory reported success")
	}
	if _, err := svc.CheckpointAll(); err == nil || !strings.Contains(err.Error(), `"tenant"`) {
		t.Fatalf("CheckpointAll error %v does not name the failing session", err)
	}
	if svc.mgr.evict(sess) {
		t.Fatal("eviction went ahead without a checkpoint")
	}
	if errs.Value() != 3 {
		t.Fatalf("megh_checkpoint_errors_total = %d after three failed writes", errs.Value())
	}
	if info := sess.info(); !info.Live {
		t.Fatal("a failed eviction dropped the learner")
	}
	if after, err := os.ReadFile(resp.Path); err != nil || !bytes.Equal(after, good) {
		t.Fatalf("failed checkpoints disturbed the previous image (err=%v)", err)
	}
}
