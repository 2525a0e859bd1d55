package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"megh/internal/sim"
)

// wireBody is the reference encoder of the binary layout (codec.go), written
// field by field from its table: an elided *StateRequest, a *FeedbackRequest,
// or a *BatchDecideRequest of elided states. The client must put exactly
// these bytes on the wire, and every body the decoder accepts must come back
// out of it unchanged.
func wireBody(v any) []byte {
	var b []byte
	state := func(r *StateRequest) {
		b = binary.AppendVarint(b, int64(r.Step))
		b = binary.AppendUvarint(b, uint64(len(r.Base)))
		b = append(b, r.Base...)
		b = binary.AppendUvarint(b, uint64(len(r.FailedHosts)))
		for _, i := range r.FailedHosts {
			b = binary.AppendUvarint(b, uint64(i))
		}
		b = binary.AppendUvarint(b, uint64(len(r.VMs)))
		for _, vm := range r.VMs {
			b = binary.AppendVarint(b, int64(vm.Host))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(vm.Utilization))
		}
	}
	feedback := func(fb *FeedbackRequest) {
		b = binary.AppendVarint(b, int64(fb.Step))
		for _, f := range []float64{fb.StepCost, fb.EnergyCost, fb.SLACost, fb.ResourceCost} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	switch v := v.(type) {
	case *StateRequest:
		state(v)
	case *FeedbackRequest:
		feedback(v)
	case *BatchDecideRequest:
		b = binary.AppendUvarint(b, uint64(len(v.Items)))
		for i := range v.Items {
			if fb := v.Items[i].Feedback; fb != nil {
				b = append(b, 1)
				feedback(fb)
			} else {
				b = append(b, 0)
			}
			state(&v.Items[i].State)
		}
	default:
		panic(fmt.Sprintf("wireBody: %T", v))
	}
	return b
}

// carried reports whether the binary layout holds all of v: elided snapshots
// with no hosts and no VM resources, whose base is printable ASCII.
func carried(v any) bool {
	switch v := v.(type) {
	case *StateRequest:
		if len(v.Hosts) != 0 {
			return false
		}
		for _, c := range []byte(v.Base) {
			if c < ' ' || c > '~' {
				return false
			}
		}
		for _, vm := range v.VMs {
			if vm.MIPS != 0 || vm.RAMMB != 0 || vm.BandwidthMbps != 0 {
				return false
			}
		}
	case *BatchDecideRequest:
		for i := range v.Items {
			if !carried(&v.Items[i].State) {
				return false
			}
		}
	}
	return true
}

// sameValue reports whether a and b hold the same request: every float64 to
// the bit, which reflect.DeepEqual does not check (it holds −0 == +0), and a
// nil slice the same as an empty one, which nothing downstream tells apart.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

func same[T any](a, b *T) bool { return sameValue(reflect.ValueOf(a), reflect.ValueOf(b)) }

// decodeScratch is a session only for its scratch slot.
var decodeScratch session

// viaBinary is the layout's coverage oracle: data decodes as the service
// decodes a JSON body — by encoding/json, with its verdict and error text —
// and when that value is one the layout carries, its binary body decodes to
// the very same value, into storage earlier calls have used, as a session's
// requests do. It reports whether the binary form carried the value.
func viaBinary[T any](t *testing.T, data []byte) bool {
	t.Helper()
	var fromJSON, want T
	bin, err := decodeWire("application/json", data, &fromJSON, nil)
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	if bin || fmt.Sprint(err) != fmt.Sprint(wantErr) || !same(&fromJSON, &want) {
		t.Fatalf("decodeWire (binary %t): %+v, %v\nencoding/json: %+v, %v\ninput: %q", bin, fromJSON, err, want, wantErr, data)
	}
	if err != nil || !carried(&fromJSON) {
		return false
	}
	body := wireBody(&fromJSON)
	sc := decodeScratch.takeScratch()
	defer decodeScratch.recycle(sc)
	var got T
	if bin, err := decodeWire(elidedMediaType, body, &got, sc); !bin || err != nil || !same(&got, &fromJSON) {
		t.Fatalf("binary body %x (binary %t, %v): %+v\nJSON: %+v\ninput: %q", body, bin, err, got, fromJSON, data)
	}
	return true
}

// batchWraps returns state as the state of decide/batch items: alone, and
// behind an item that carries feedback.
func batchWraps(state []byte) [][]byte {
	one := fmt.Sprintf(`{"items":[{"state":%s}]}`, state)
	two := fmt.Sprintf(`{"items":[{"feedback":{"step":3,"step_cost":0.5,"sla_cost":1e-7},"state":%s},{"state":%s}]}`, state, state)
	return [][]byte{[]byte(one), []byte(two)}
}

// codecSeed is one JSON body of the decoder table; carried says whether
// encoding/json decodes it to a value the binary layout holds.
type codecSeed struct {
	name, body string
	carried    bool
}

// codecSeeds is the JSON decoder table: an elided request in compact JSON
// and its near misses, against the 3 × 2 world
// whose base FuzzDecideRequestJSON's session holds. The fuzz target starts
// from the same inputs: testdata/fuzz holds them as files, which
// TestDecodeFastPath keeps in step.
func codecSeeds() []codecSeed {
	world := testWorld(3, 2, true)
	head := fmt.Sprintf(`{"step":4,"base":"%s",`, digestOf(&world))
	vms := func(first string) string {
		return `"vms":[` + first + `,{"host":0,"utilization":0.3},{"host":1,"utilization":0.3}]}`
	}
	const vm0 = `{"host":0,"utilization":1}`
	canonical := head + `"failed_hosts":[1],` + vms(vm0)
	full, _ := json.Marshal(world)
	seeds := []codecSeed{
		{"canonical", canonical, true},
		{"no-failed-hosts", head + vms(vm0), true},
		{"two-failed-hosts", head + `"failed_hosts":[0,1],` + vms(vm0), true},
		{"negative-zero", head + vms(`{"host":0,"utilization":-0}`), true},
		{"small-exponent", head + vms(`{"host":0,"utilization":0.1e-7}`), true},
		{"capital-exponent", head + vms(`{"host":0,"utilization":1E+0}`), true},
		{"seventeen-digits", head + vms(`{"host":0,"utilization":0.12345678901234568}`), true},
		{"mantissa-2p53-plus-1", head + vms(`{"host":0,"utilization":0.9007199254740993}`), true},
		{"twenty-digits", head + vms(`{"host":0,"utilization":0.12345678901234567891}`), true},
		{"table-edge", head + vms(`{"host":0,"utilization":0.0000010000000000000002}`), true},
		{"e-form", head + vms(`{"host":0,"utilization":9.99e-7}`), true},
		{"negative-zero-fraction", head + vms(`{"host":0,"utilization":-0.0}`), true},
		{"negative-host", head + vms(`{"host":-1,"utilization":1}`), true},
		{"long-step", `{"step":123456789012345678,"base":"d",` + vms(vm0), true},
		{"whitespace", " {\n \"step\" : 4, \"base\" : \"d\" ,\t\"vms\" : [ { \"host\" : 0 , \"utilization\" : 1 } ] } ", true},
		{"trailing-newline", canonical + "\n", true},
		{"trailing-garbage", canonical + "x", true},
		{"case-folded-key", head + vms(`{"Host":0,"utilization":1}`), true},
		{"escaped-key", head + vms(`{"h\u006fst":0,"utilization":1}`), true},
		{"duplicate-host", head + vms(`{"host":1,"host":0,"utilization":1}`), true},
		{"swapped-keys", head + vms(`{"utilization":1,"host":0}`), true},
		{"utilization-null", head + vms(`{"host":0,"utilization":null}`), true},
		{"utilization-1e999", head + vms(`{"host":0,"utilization":1e999}`), false},
		{"utilization-string", head + vms(`{"host":0,"utilization":"1"}`), false},
		{"utilization-bare-dot", head + vms(`{"host":0,"utilization":1.}`), false},
		{"utilization-hex", head + vms(`{"host":0,"utilization":0x1p-2}`), false},
		{"utilization-inf", head + vms(`{"host":0,"utilization":inf}`), false},
		{"utilization-long", head + vms(`{"host":0,"utilization":0.`+strings.Repeat("3", 40)+`}`), true},
		{"host-float", head + vms(`{"host":1.0,"utilization":1}`), false},
		{"host-exponent", head + vms(`{"host":1e0,"utilization":1}`), false},
		{"host-leading-zero", head + vms(`{"host":01,"utilization":1}`), false},
		{"host-overflow", head + vms(`{"host":99999999999999999999,"utilization":1}`), false},
		{"static-field", head + vms(`{"host":0,"utilization":1,"mips":9}`), false},
		{"empty-vms", head + `"vms":[]}`, true},
		{"null-vms", head + `"vms":null}`, true},
		{"empty-failed-hosts", head + `"failed_hosts":[],` + vms(vm0), true},
		{"empty-base", `{"step":4,"base":"",` + vms(vm0), true},
		{"escaped-base", `{"step":4,"base":"a\"b",` + vms(vm0), true},
		{"non-ascii-base", `{"step":4,"base":"é",` + vms(vm0), false},
		{"hosts-beside-base", head + `"hosts":[{"mips":1,"ram_mb":1}],` + vms(vm0), false},
		{"base-after-vms", `{"step":4,` + strings.TrimSuffix(vms(vm0), "}") + `,"base":"d"}`, true},
		{"braces-only", head + `"vms":[` + strings.Repeat("{", 64) + `]}`, false},
		{"full-form", string(full), false},
		{"empty-object", `{}`, true},
		{"not-json", `not json`, false},
	}
	// Truncated in front of every structural byte.
	const short = `{"step":4,"base":"d","failed_hosts":[1],"vms":[{"host":0,"utilization":1}]}`
	for i := range short {
		if strings.IndexByte(`{}[],:"`, short[i]) >= 0 {
			seeds = append(seeds, codecSeed{fmt.Sprintf("truncated-%02d", i), short[:i], false})
		}
	}
	return seeds
}

// TestDecodeFastPath: the binary body carries every value the JSON spelling
// of an elided request does, to the bit. Each body of the table that
// encoding/json decodes to an elided snapshot — alone and as batch items —
// and each batch and feedback body below, re-encoded in the binary layout,
// decodes to that very value, −0 and 2⁵³+1 included; a JSON body, canonical
// or not, stays with encoding/json. The table is also committed as
// FuzzDecideRequestJSON's seed corpus, which this test keeps in step.
func TestDecodeFastPath(t *testing.T) {
	for _, s := range codecSeeds() {
		t.Run(s.name, func(t *testing.T) {
			if got := viaBinary[StateRequest](t, []byte(s.body)); got != s.carried {
				t.Errorf("binary form carried the value: %t, want %t\n%s", got, s.carried, s.body)
			}
			// As a batch item, a state that is not one JSON value alone
			// (trailing-garbage) makes the whole body fail.
			want := s.carried && s.name != "trailing-garbage"
			for _, wrapped := range batchWraps([]byte(s.body)) {
				if got := viaBinary[BatchDecideRequest](t, wrapped); got != want {
					t.Errorf("as a batch item, binary form carried the value: %t, want %t\n%s", got, want, wrapped)
				}
			}
			checkGolden(t, "fuzz/FuzzDecideRequestJSON/seed_codec_"+s.name,
				[]byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.body)))
		})
	}

	// What only a batch can hold.
	const state = `{"step":4,"base":"d","vms":[{"host":0,"utilization":1}]}`
	for name, tc := range map[string]struct {
		body    string
		carried bool
	}{
		"every cost":         {`{"items":[{"feedback":{"step":3,"step_cost":0.5,"energy_cost":0.25,"sla_cost":-0,"resource_cost":2e-9},"state":` + state + `}]}`, true},
		"resource cost only": {`{"items":[{"feedback":{"step":3,"step_cost":0.5,"resource_cost":1},"state":` + state + `}]}`, true},
		"costs out of order": {`{"items":[{"feedback":{"step":3,"step_cost":0.5,"sla_cost":1,"energy_cost":1},"state":` + state + `}]}`, true},
		"feedback null":      {`{"items":[{"feedback":null,"state":` + state + `}]}`, true},
		"no step cost":       {`{"items":[{"feedback":{"step":3},"state":` + state + `}]}`, true},
		"no items":           {`{"items":[]}`, true},
		"null items":         {`{"items":null}`, true},
		"item without state": {`{"items":[{}]}`, true},
		"bases differ":       {`{"items":[{"state":` + state + `},{"state":` + strings.Replace(state, `"d"`, `"e"`, 1) + `}]}`, true},
		"a full item":        {`{"items":[{"state":` + state + `},{"state":{"step":5,"hosts":[{"mips":1,"ram_mb":1}],"vms":[{"host":0,"utilization":1,"mips":1,"ram_mb":1}]}}]}`, false},
		"trailing comma":     {`{"items":[{"state":` + state + `},]}`, false},
	} {
		if got := viaBinary[BatchDecideRequest](t, []byte(tc.body)); got != tc.carried {
			t.Errorf("batch %s: binary form carried the value: %t, want %t", name, got, tc.carried)
		}
	}

	// The feedback route's body.
	for body, ok := range map[string]bool{
		`{"step":3,"step_cost":0.5}`: true,
		`{"step":3,"step_cost":-0.0,"energy_cost":0.25,"sla_cost":1e-7,"resource_cost":0.9007199254740993}`: true,
		`{"step_cost":0.5,"step":-3}`:  true,
		`{"step":3}`:                   true,
		`{"step":3,"step_cost":1e999}`: false,
		`{"step":3.5,"step_cost":1}`:   false,
		`not json`:                     false,
	} {
		if got := viaBinary[FeedbackRequest](t, []byte(body)); got != ok {
			t.Errorf("feedback %s: binary form carried the value: %t, want %t", body, got, ok)
		}
	}
}

// binarySeed is one body of the decoder's refusal table: what it carries —
// a snapshot ('s'), a batch ('b') or a feedback post ('f') — and the fault
// it must be refused for ("" for a body it accepts).
type binarySeed struct {
	name string
	kind byte
	body []byte
	err  string
}

// binarySeeds is the refusal table, against the 3 × 2 world whose base
// FuzzDecideRequestBinary's sessions hold; the fuzz target starts from the
// same bodies, committed under testdata/fuzz.
func binarySeeds() []binarySeed {
	world := testWorld(3, 2, true)
	digest := digestOf(&world)
	elided := elideSnapshot(&world, digest)
	elided.Step, elided.FailedHosts = 4, []int{1}
	state := wireBody(&elided)
	fb := FeedbackRequest{Step: 3, StepCost: 0.5, EnergyCost: math.Copysign(0, -1), SLACost: 1e-7, ResourceCost: 2}
	feedback := wireBody(&fb)
	batch := wireBody(&BatchDecideRequest{Items: []BatchDecideItem{{State: elided, Feedback: &fb}, {State: elided}}})
	// at returns body with the bytes from off on replaced by with.
	at := func(body []byte, off int, with ...byte) []byte {
		return append(append([]byte(nil), body[:off]...), with...)
	}
	// utilAt is the offset of VM j's utilization in state: step, base
	// length, base, failed count and index, VM count, then a one-byte host
	// before each 8-byte utilization.
	utilAt := func(j int) int { return 1 + 1 + len(digest) + 2 + 1 + 9*j + 1 }
	vmCountAt := 1 + 1 + len(digest) + 2
	nan, inf := math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1))
	bits := func(u uint64) []byte { return binary.LittleEndian.AppendUint64(nil, u) }
	with := func(body []byte, off int, u uint64) []byte {
		return append(at(body, off, bits(u)...), body[off+8:]...)
	}
	seeds := []binarySeed{
		{"state", 's', state, ""},
		{"feedback", 'f', feedback, ""},
		{"batch", 'b', batch, ""},
		{"empty-batch", 'b', []byte{0}, ""},
		{"state-trailing-byte", 's', append(at(state, len(state)), 0), "trailing"},
		{"feedback-trailing-byte", 'f', append(at(feedback, len(feedback)), 0), "trailing"},
		{"batch-trailing-byte", 'b', append(at(batch, len(batch)), 0), "trailing"},
		{"state-as-batch", 'b', state, "flag"},
		{"step-non-minimal", 's', append(at(state, 0, 0x88, 0x00), state[1:]...), "not minimal"},
		{"base-length-non-minimal", 's', append(at(state, 1, byte(len(digest))|0x80, 0x00), state[2:]...), "not minimal"},
		{"vm-count-non-minimal", 's', append(at(state, vmCountAt, 0x83, 0x00), state[vmCountAt+1:]...), "not minimal"},
		{"item-count-non-minimal", 'b', append([]byte{0x82, 0x00}, batch[1:]...), "not minimal"},
		{"feedback-step-non-minimal", 'f', append([]byte{0x86, 0x00}, feedback[1:]...), "not minimal"},
		{"varint-overflow", 's', append(bytes.Repeat([]byte{0xff}, 10), 0x01), "overflowing"},
		{"vm-count-too-large", 's', append(at(state, vmCountAt, 4), state[vmCountAt+1:]...), "do not fit"},
		{"vm-count-huge", 's', append(at(state, vmCountAt, 0xff, 0xff, 0xff, 0xff, 0x0f), state[vmCountAt+1:]...), "do not fit"},
		{"base-too-long", 's', append(at(state, 1, 0x7f), state[2:]...), "do not fit"},
		{"failed-count-too-large", 's', append(at(state, 2+len(digest), 0x7f), state[3+len(digest):]...), "do not fit"},
		{"item-count-too-large", 'b', append([]byte{0x7f}, batch[1:]...), "do not fit"},
		{"items-past-the-limit", 'b', append(binary.AppendUvarint(nil, MaxBatchItems+1), bytes.Repeat([]byte{0, 0, 0, 0, 0}, MaxBatchItems+1)...), "limit"},
		{"feedback-flag-two", 'b', append([]byte{1, 2}, state...), "flag"},
		{"base-not-printable", 's', append(at(state, 2, 0x7f), state[3:]...), "printable"},
		{"utilization-nan", 's', with(state, utilAt(1), nan), "NaN"},
		{"utilization-inf", 's', with(state, utilAt(2), inf), "Inf"},
		{"vms-truncated", 's', state[:len(state)-3], "do not fit"},
		{"step-cost-nan", 'f', with(feedback, 1, nan), "NaN"},
		{"resource-cost-inf", 'f', with(feedback, 25, math.Float64bits(math.Inf(1))), "Inf"},
		{"batch-energy-cost-nan", 'b', with(batch, 3+8, nan), "NaN"},
		{"feedback-truncated", 'f', feedback[:20], "truncated"},
		{"empty-body", 's', nil, "truncated"},
	}
	return seeds
}

// decodeKind decodes body as the request kind names, into sc.
func decodeKind(kind byte, body []byte, sc *requestScratch) (any, error) {
	var v any
	switch kind {
	case 's':
		v = new(StateRequest)
	case 'b':
		v = new(BatchDecideRequest)
	default:
		v = new(FeedbackRequest)
	}
	_, err := decodeWire(elidedMediaType, body, v, sc)
	return v, err
}

// TestBinaryBodyRefusals holds the decoder to its refusals — trailing bytes,
// a varint longer than it needs, a count the bytes left cannot hold, NaN and
// ±Inf in a utilization or a cost — and the service to its 400 for each,
// while the well-formed bodies of the table decode and are served. The table
// is also committed as FuzzDecideRequestBinary's seed corpus.
func TestBinaryBodyRefusals(t *testing.T) {
	svc, _ := newSessionService(t, 0)
	world := testWorld(3, 2, true)
	if _, _, err := svc.mgr.put("bin", SessionSpec{NumVMs: 3, NumHosts: 2}); err != nil {
		t.Fatal(err)
	}
	handler := svc.Handler()
	postOK(t, handler, "/v2/sessions/bin/decide", "application/json", mustMarshal(t, world))
	routes := map[byte]string{'s': "/decide", 'b': "/decide/batch", 'f': "/feedback"}
	for _, s := range binarySeeds() {
		t.Run(s.name, func(t *testing.T) {
			_, err := decodeKind(s.kind, s.body, new(requestScratch))
			if s.err == "" && err != nil || s.err != "" && (err == nil || !strings.Contains(err.Error(), s.err)) {
				t.Fatalf("decoder: %v, want an error with %q", err, s.err)
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v2/sessions/bin"+routes[s.kind], bytes.NewReader(s.body))
			req.Header.Set("Content-Type", elidedMediaType)
			handler.ServeHTTP(rec, req)
			if s.err != "" && (rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), s.err)) {
				t.Fatalf("service: %d %s, want 400 naming %q", rec.Code, rec.Body, s.err)
			}
			if s.err == "" && rec.Code >= 300 && !strings.Contains(rec.Body.String(), "no items") {
				t.Fatalf("service: %d %s", rec.Code, rec.Body)
			}
			checkGolden(t, "fuzz/FuzzDecideRequestBinary/seed_"+s.name,
				[]byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", append([]byte{s.kind}, s.body...))))
		})
	}
}

// wireReq is one request as it went on the wire.
type wireReq struct {
	contentType string
	body        []byte
}

func jsonWire(t *testing.T, v any) wireReq { return wireReq{"application/json", mustMarshal(t, v)} }
func binWire(v any) wireReq                { return wireReq{elidedMediaType, wireBody(v)} }

// wireSpy is a stand-in service that records every request body and its
// Content-Type and answers 200 (204 to feedback), or 409 to the requests
// conflict picks out.
type wireSpy struct {
	mu       sync.Mutex
	reqs     []wireReq
	conflict func(n int) bool
}

func (w *wireSpy) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	w.mu.Lock()
	n := len(w.reqs)
	w.reqs = append(w.reqs, wireReq{r.Header.Get("Content-Type"), body})
	w.mu.Unlock()
	switch {
	case w.conflict != nil && w.conflict(n):
		writeError(rw, http.StatusConflict, errBaseConflict)
	case strings.HasSuffix(r.URL.Path, "/batch"):
		writeJSON(rw, http.StatusOK, BatchDecideResponse{})
	case strings.HasSuffix(r.URL.Path, "/feedback"):
		rw.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(rw, http.StatusOK, DecideResponse{})
	}
}

// next returns the requests recorded since the last call.
func (w *wireSpy) next() []wireReq {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.reqs
	w.reqs = nil
	return out
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// batchWire is the request DecideBatchCtx must send for req from a view
// holding held: each item whose static fields digest to the base in force at
// its position — held, then the last full item's — elided, the others full;
// wireBody of that when every item elides, json.Marshal of it otherwise.
func batchWire(t *testing.T, held string, req BatchDecideRequest) wireReq {
	if len(req.Items) == 0 {
		return jsonWire(t, req)
	}
	wire, all := BatchDecideRequest{Items: slices.Clone(req.Items)}, true
	for i := range wire.Items {
		st := &wire.Items[i].State
		if d := digestOf(st); d != held || !elidable(st) {
			held, all = d, false
			continue
		}
		*st = elideSnapshot(st, held)
	}
	if all {
		return binWire(&wire)
	}
	return jsonWire(t, wire)
}

// hexDump renders one body for the wire golden: a title line, then the
// bytes in hex, 32 to a line.
func hexDump(title string, b []byte) string {
	out := fmt.Sprintf("# %s (%d bytes)\n", title, len(b))
	for s := hex.EncodeToString(b); s != ""; {
		n := min(len(s), 64)
		out, s = out+s[:n]+"\n", s[n:]
	}
	return out
}

// TestSessionClientWireBytes: the bytes SessionClient puts on the wire are
// wireBody of the elided value — for single decides and batches, with and
// without feedback and failed hosts — or json.Marshal of a full snapshot, and
// of a batch that is not all elided, or resent after a 409, with its
// elidable items elided; each under its Content-Type. The static half changes mid-run, and
// between items only in the sign of a zero MIPS. An elided decide, a
// two-item batch and a feedback post are pinned as hex in
// testdata/elided.golden, with the binary answers to a decide and to a
// two-item batch, so a layout change is a reviewed diff.
func TestSessionClientWireBytes(t *testing.T) {
	spy := &wireSpy{}
	ts := httptest.NewServer(spy)
	defer ts.Close()
	ctx := context.Background()
	c := NewClient(ts.URL, nil)
	c.SetRetryPolicy(1, 0)
	sc := c.Session("wire")
	var golden strings.Builder

	world := func(step int) StateRequest {
		req := elideWorld(step) // host 15 fails on steps ≡ 3 (mod 5)
		if step%5 == 4 {
			req.Hosts[0].Failed, req.Hosts[7].Failed = true, true
		}
		if step >= 6 {
			req.VMs[2].RAMMB = 2048 // the static half changes at step 6
		}
		req.VMs[step%len(req.VMs)].Utilization = 1e-7 * float64(step)
		return req
	}
	expect := func(what string, want ...wireReq) []wireReq {
		t.Helper()
		got := spy.next()
		if len(got) != len(want) {
			t.Fatalf("%s: %d requests on the wire, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].contentType != want[i].contentType || !bytes.Equal(got[i].body, want[i].body) {
				t.Fatalf("%s, request %d:\n got %s %x\nwant %s %x", what, i,
					got[i].contentType, got[i].body, want[i].contentType, want[i].body)
			}
		}
		return got
	}

	var digest string
	for step := 0; step < 10; step++ {
		req := world(step)
		if _, err := sc.Decide(ctx, req); err != nil {
			t.Fatal(err)
		}
		if d := digestOf(&req); d != digest {
			digest = d
			expect(fmt.Sprintf("step %d, full", step), jsonWire(t, req))
			continue
		}
		elided := elideSnapshot(&req, digest)
		sent := expect(fmt.Sprintf("step %d, elided", step), binWire(&elided))
		if step == 4 {
			golden.WriteString(hexDump("decide, step 4: 24 VMs, hosts 0 and 7 failed, VM 4 at 4e-7", sent[0].body))
		}
	}

	// Batches: all elided; statics changing back mid-batch, so a full item
	// sits between elided ones; a fresh view, whose first item is full.
	batch := func(from, to int) BatchDecideRequest {
		var req BatchDecideRequest
		for step := from; step < to; step++ {
			it := BatchDecideItem{State: world(step)}
			switch step % 3 {
			case 1:
				it.Feedback = &FeedbackRequest{Step: step - 1, StepCost: 0.4}
			case 2:
				it.Feedback = &FeedbackRequest{Step: step - 1, StepCost: 1e21, EnergyCost: math.Copysign(0, -1),
					SLACost: 1e-9, ResourceCost: 3}
			}
			req.Items = append(req.Items, it)
		}
		return req
	}
	// DecideBatchCtx digests an item only when its statics differ from the
	// previous item's, so the wire must not change when they differ only in
	// the sign of a zero, or when items share one Hosts array. Each batch
	// ends on the statics in force before it, which the 409 step below
	// relies on.
	edit := func(req BatchDecideRequest, from, to int, f func(*StateRequest)) BatchDecideRequest {
		for i := from; i < to; i++ {
			f(&req.Items[i].State)
		}
		return req
	}
	hostZeroMIPS := func(sign float64) func(*StateRequest) {
		return func(st *StateRequest) { st.Hosts[3].MIPS = math.Copysign(0, sign) }
	}
	vmZeroMIPS := func(sign float64) func(*StateRequest) {
		return func(st *StateRequest) { st.VMs[5].MIPS = math.Copysign(0, sign) }
	}
	shared := batch(3, 9)
	edit(shared, 1, len(shared.Items), func(st *StateRequest) { st.Hosts = shared.Items[0].State.Hosts })
	sameStatics := batch(10, 16)
	edit(sameStatics, 1, len(sameStatics.Items), func(st *StateRequest) { st.Hosts = sameStatics.Items[0].State.Hosts })
	for what, run := range map[string]struct {
		view *SessionClient
		req  BatchDecideRequest
	}{
		"all elided":               {sc, batch(10, 16)},
		"all elided, shared hosts": {sc, sameStatics},
		"full in between":          {sc, BatchDecideRequest{Items: append(batch(16, 19).Items, append(batch(2, 5).Items, batch(19, 21).Items...)...)}},
		"fresh view":               {c.Session("wire"), batch(21, 25)},
		"empty":                    {sc, BatchDecideRequest{}},
		"shared hosts, VMs change": {sc, shared},
		"host MIPS +0 then -0":     {sc, edit(edit(batch(25, 30), 0, 2, hostZeroMIPS(1)), 2, 4, hostZeroMIPS(-1))},
		"VM MIPS +0 then -0":       {sc, edit(edit(batch(30, 35), 0, 2, vmZeroMIPS(1)), 2, 4, vmZeroMIPS(-1))},
	} {
		var held string
		if p := run.view.base.Load(); p != nil {
			held = *p
		}
		if _, err := run.view.DecideBatchCtx(ctx, run.req); err != nil {
			t.Fatal(err)
		}
		expect("batch, "+what, batchWire(t, held, run.req))
	}
	if _, err := sc.DecideBatchCtx(ctx, batch(35, 37)); err != nil {
		t.Fatal(err)
	}
	sent := expect("two-item batch", batchWire(t, digest, batch(35, 37)))
	golden.WriteString(hexDump("batch, steps 35 and 36: feedback with 1e21, -0, 1e-9 and 3, then none", sent[0].body))

	// A 409 to an elided request: the same request again, in full, once.
	spy.conflict = func(n int) bool { return n == 0 }
	req := world(30)
	if _, err := sc.Decide(ctx, req); err != nil {
		t.Fatal(err)
	}
	elided := elideSnapshot(&req, digest)
	expect("decide across a 409", binWire(&elided), jsonWire(t, req))
	breq := batch(31, 34)
	if _, err := sc.DecideBatchCtx(ctx, breq); err != nil {
		t.Fatal(err)
	}
	expect("batch across a 409", batchWire(t, digest, breq), batchWire(t, "", breq))

	// Feedback posts are binary, whatever the world's size.
	spy.conflict = nil
	for _, fb := range []FeedbackRequest{
		{Step: 3, StepCost: 0.4},
		{Step: 4, StepCost: 1e21, EnergyCost: math.Copysign(0, -1), SLACost: 1e-9, ResourceCost: 3},
	} {
		if err := sc.Feedback(ctx, fb); err != nil {
			t.Fatal(err)
		}
		sent = expect("feedback", binWire(&fb))
	}
	golden.WriteString(hexDump("feedback, step 4: costs 1e21, -0, 1e-9 and 3", sent[0].body))

	// The answers the view asks for, as the service writes them: answerSeeds'
	// well-formed decide and batch.
	seeds := answerSeeds(t)
	golden.WriteString(hexDump("decide answer, step 4: VM 300 to host 2, VM 3 to host 7", seeds[0].body))
	golden.WriteString(hexDump("batch answer, steps 35 and 36: VM 12 to host 0, then none", seeds[1].body))
	checkGolden(t, "elided.golden", []byte(golden.String()))
}

// countingTransport records the Content-Type and status of every decide,
// decide/batch and feedback request it carries to the real service.
type countingTransport struct {
	mu   sync.Mutex
	seen []string
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if route := r.URL.Path[strings.LastIndex(r.URL.Path, "/")+1:]; err == nil && r.Method == http.MethodPost && route != "checkpoint" {
		c.mu.Lock()
		c.seen = append(c.seen, fmt.Sprintf("%s %s %d", route, r.Header.Get("Content-Type"), resp.StatusCode))
		c.mu.Unlock()
	}
	return resp, err
}

func (c *countingTransport) next() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.seen
	c.seen = nil
	return out
}

// TestSessionClientContentTypes follows a session's traffic against the real
// service: the first decide is JSON, every later decide, every all-elided
// batch and every feedback post binary and served, and the resend after a
// 409 — another view replaced the base — JSON again.
func TestSessionClientContentTypes(t *testing.T) {
	svc, ts := newSessionService(t, 0)
	tr := &countingTransport{}
	ctx := context.Background()
	sc := NewClient(ts.URL, &http.Client{Transport: tr}).Session("types")
	if _, err := sc.Create(ctx, elideSpec); err != nil {
		t.Fatal(err)
	}
	const js, bin = "application/json", elidedMediaType
	expect := func(what string, want ...string) {
		t.Helper()
		if got := tr.next(); !slices.Equal(got, want) {
			t.Fatalf("%s:\n got %q\nwant %q", what, got, want)
		}
	}
	for step := 0; step < 3; step++ {
		if _, err := sc.Decide(ctx, elideWorld(step)); err != nil {
			t.Fatal(err)
		}
		if err := sc.Feedback(ctx, FeedbackRequest{Step: step, StepCost: 0.4}); err != nil {
			t.Fatal(err)
		}
	}
	expect("three decides", "decide "+js+" 200", "feedback "+bin+" 204",
		"decide "+bin+" 200", "feedback "+bin+" 204", "decide "+bin+" 200", "feedback "+bin+" 204")
	var batch BatchDecideRequest
	for step := 3; step < 6; step++ {
		batch.Items = append(batch.Items, BatchDecideItem{
			State: elideWorld(step), Feedback: &FeedbackRequest{Step: step - 1, StepCost: 0.4}})
	}
	if _, err := sc.DecideBatchCtx(ctx, batch); err != nil {
		t.Fatal(err)
	}
	expect("an all-elided batch", "batch "+bin+" 200")

	// Another view uploads other statics; this view's next elided decide
	// and batch meet a 409 and go again in full.
	other := elideWorld(6)
	other.VMs[0].RAMMB *= 2
	if _, err := NewClient(ts.URL, nil).Session("types").Decide(ctx, other); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Decide(ctx, elideWorld(7)); err != nil {
		t.Fatal(err)
	}
	expect("a decide across a 409", "decide "+bin+" 409", "decide "+js+" 200")
	if _, err := NewClient(ts.URL, nil).Session("types").Decide(ctx, other); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.DecideBatchCtx(ctx, batch); err != nil {
		t.Fatal(err)
	}
	expect("a batch across a 409", "batch "+bin+" 409", "batch "+js+" 200")
	if got := svc.decodeFallback.Value(); got != 5 {
		t.Fatalf("%d decide bodies decoded as JSON, want the 5 full uploads", got)
	}
}

// TestBatchFromNoBaseFitsTheLimit: a view that holds no base — a fresh
// client, or one resending after a 409 — sends its batch's first snapshot in
// full and elides the rest against it, so a batch of 10 000 × 1 000
// snapshots that would pass maxBatchBodyBytes in full is served, both ways.
func TestBatchFromNoBaseFitsTheLimit(t *testing.T) {
	_, ts := newSessionService(t, 0)
	ctx := context.Background()
	grid := grid10k()
	spec := SessionSpec{NumVMs: len(grid.VMs), NumHosts: len(grid.Hosts)}
	n := maxBatchBodyBytes/len(mustMarshal(t, grid)) + 8
	var batch BatchDecideRequest
	for step := range n {
		st := grid
		st.Step = step
		batch.Items = append(batch.Items, BatchDecideItem{State: st})
	}
	tr := &countingTransport{}
	sc := NewClient(ts.URL, &http.Client{Transport: tr}).Session("grid")
	if _, err := sc.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	other := grid
	other.VMs = slices.Clone(grid.VMs)
	other.VMs[0].RAMMB *= 2
	for _, run := range []struct {
		what string
		want []string
	}{
		{"a fresh view", []string{"batch application/json 200"}},
		{"across a 409", []string{"batch " + elidedMediaType + " 409", "batch application/json 200"}},
	} {
		if run.what == "across a 409" {
			// Another view replaces the base this one holds.
			if _, err := NewClient(ts.URL, nil).Session("grid").Decide(ctx, other); err != nil {
				t.Fatal(err)
			}
		}
		got, err := sc.DecideBatchCtx(ctx, batch)
		if err != nil {
			t.Fatalf("%d-item batch from %s: %v", n, run.what, err)
		}
		if len(got.Results) != n {
			t.Fatalf("%d-item batch from %s: %d results", n, run.what, len(got.Results))
		}
		if seen := tr.next(); !slices.Equal(seen, run.want) {
			t.Fatalf("%d-item batch from %s:\n got %q\nwant %q", n, run.what, seen, run.want)
		}
	}
}

// TestDecideResponseEncoder: the service's decide and decide/batch answers,
// with or without migrations, are json.Marshal of the response it used to
// build, and the binary answer to the same decisions decodes to exactly what
// encoding/json reads from the JSON one — an empty Migrations included — so
// a client cannot tell which one it was sent.
func TestDecideResponseEncoder(t *testing.T) {
	none, some := []sim.Migration{}, []sim.Migration{{VM: 12, Dest: 3}, {VM: 0, Dest: 0}, {VM: 300, Dest: 70000}}
	for _, c := range []struct {
		steps []int
		outs  [][]sim.Migration
	}{
		{[]int{0}, [][]sim.Migration{nil}},
		{[]int{4}, [][]sim.Migration{some}},
		{[]int{-3}, [][]sim.Migration{none}},
		{[]int{1 << 40, 7, 8}, [][]sim.Migration{some, nil, some[:1]}},
	} {
		for _, batched := range []bool{false, true} {
			if !batched && len(c.steps) > 1 {
				continue
			}
			var fromJSON, fromBinary, want any = new(DecideResponse), new(DecideResponse), nil
			if batched {
				fromJSON, fromBinary = new(BatchDecideResponse), new(BatchDecideResponse)
			}
			var results []DecideResponse
			for i, migs := range c.outs {
				r := DecideResponse{Step: c.steps[i], Migrations: []MigrationDecision{}}
				for _, m := range migs {
					r.Migrations = append(r.Migrations, MigrationDecision{VM: m.VM, Dest: m.Dest})
				}
				results = append(results, r)
			}
			if want = results[0]; batched {
				want = BatchDecideResponse{Results: results}
			}
			js := answer(t, batched, false, c.steps, c.outs)
			if wantJS := append(mustMarshal(t, want), '\n'); !bytes.Equal(js, wantJS) {
				t.Fatalf("JSON answer %s, json.Marshal %s", js, wantJS)
			}
			bin := answer(t, batched, true, c.steps, c.outs)
			if err := json.Unmarshal(js, fromJSON); err != nil {
				t.Fatal(err)
			}
			if err := decodeAnswer(bin, fromBinary); err != nil || !reflect.DeepEqual(fromBinary, fromJSON) {
				t.Fatalf("binary answer %x decodes to %+v, %v; the JSON one to %+v", bin, fromBinary, err, fromJSON)
			}
		}
	}
}

// TestEncoderFloats: every finite float64 — −0, the subnormals, the
// largest, 2⁵³+1's neighbours, random bit patterns — travels as its own
// bits: the client writes wireBody's bytes for a decide and for a batch item
// with feedback, and the service's decoder reads back the same bits. NaN
// and ±Inf are refused before anything is sent, with encoding/json's error,
// as for the full form.
func TestEncoderFloats(t *testing.T) {
	spy := &wireSpy{}
	ts := httptest.NewServer(spy)
	defer ts.Close()
	ctx := context.Background()
	sc := NewClient(ts.URL, nil).Session("floats")
	req := elideWorld(0)
	digest := digestOf(&req)
	if _, err := sc.Decide(ctx, req); err != nil {
		t.Fatal(err)
	}
	spy.next()

	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.3, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 1.25e-300,
		1e21, 1e20, 123456789012345678901234, 1e100, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		math.Pi, 1.0 / 3, 0.9007199254740993, math.Nextafter(1, 2), math.Nextafter(1, 0),
	}
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 200; i++ {
		floats = append(floats, math.Float64frombits(r.Uint64()), r.Float64(), r.NormFloat64()*1e-6)
	}
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		req.VMs[3].Utilization = f
		breq := BatchDecideRequest{Items: []BatchDecideItem{{
			State:    req,
			Feedback: &FeedbackRequest{Step: 1, StepCost: f, EnergyCost: f, SLACost: -f, ResourceCost: f / 2},
		}}}
		if _, err := sc.Decide(ctx, req); err != nil {
			t.Fatalf("%g: %v", f, err)
		}
		if _, err := sc.DecideBatchCtx(ctx, breq); err != nil {
			t.Fatalf("%g in a batch: %v", f, err)
		}
		elided := elideSnapshot(&req, digest)
		got, want := spy.next(), []wireReq{binWire(&elided), batchWire(t, digest, breq)}
		for i := range want {
			if len(got) != 2 || !bytes.Equal(got[i].body, want[i].body) {
				t.Fatalf("%g (bits %#x), request %d:\n got %x\nwant %x", f, math.Float64bits(f), i, got[i].body, want[i].body)
			}
		}
		var st StateRequest
		var bt BatchDecideRequest
		if _, err := decodeWire(elidedMediaType, got[0].body, &st, new(requestScratch)); err != nil ||
			math.Float64bits(st.VMs[3].Utilization) != math.Float64bits(f) {
			t.Fatalf("%g (bits %#x): decoded %v, %v", f, math.Float64bits(f), st.VMs[3].Utilization, err)
		}
		if _, err := decodeWire(elidedMediaType, got[1].body, &bt, new(requestScratch)); err != nil ||
			!same(bt.Items[0].Feedback, breq.Items[0].Feedback) {
			t.Fatalf("%g (bits %#x): decoded feedback %+v, %v", f, math.Float64bits(f), bt.Items[0].Feedback, err)
		}
	}

	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req.VMs[3].Utilization = f
		_, jsonErr := json.Marshal(f)
		_, err := sc.Decide(ctx, req)
		var unsupported *json.UnsupportedValueError
		if !errors.As(err, &unsupported) || err.Error() != encodingError(sc.prefix+"/decide", jsonErr).Error() {
			t.Fatalf("%g: Decide returned %v, want encoding/json's %v", f, err, jsonErr)
		}
		for what, breq := range map[string]BatchDecideRequest{
			"state":    {Items: []BatchDecideItem{{State: req}}},
			"feedback": {Items: []BatchDecideItem{{State: elideWorld(1), Feedback: &FeedbackRequest{ResourceCost: f}}}},
		} {
			_, err := sc.DecideBatchCtx(ctx, breq)
			if !errors.As(err, &unsupported) || err.Error() != encodingError(sc.prefix+"/decide/batch", jsonErr).Error() {
				t.Fatalf("%g in a batch %s: DecideBatchCtx returned %v, want encoding/json's %v", f, what, err, jsonErr)
			}
		}
		err = sc.Feedback(ctx, FeedbackRequest{Step: 1, SLACost: f})
		if !errors.As(err, &unsupported) || err.Error() != encodingError(sc.prefix+"/feedback", jsonErr).Error() {
			t.Fatalf("%g: Feedback returned %v, want encoding/json's %v", f, err, jsonErr)
		}
		if sent := spy.next(); len(sent) != 0 {
			t.Fatalf("%g: %d requests went out", f, len(sent))
		}
	}
}

// TestBodyLimitIsOnTheBody: every body route answers 413 to a body longer
// than its limit wherever the JSON in it ends — padding after the first
// value counts like padding inside it — while bytes after the first value
// that stay within the limit are ignored, as they always were; and a
// Content-Length header alone neither gets past the limit nor reserves
// memory for bytes that never arrive.
func TestBodyLimitIsOnTheBody(t *testing.T) {
	_, ts := newSessionService(t, 0)
	spec := SessionSpec{NumVMs: 4, NumHosts: 3}
	world := mustMarshal(t, sessionWorld(4, 3, 0))
	batch := append(append([]byte(`{"items":[{"state":`), world...), `}]}`...)
	session := "/v2/sessions/" + DefaultSessionID
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	fresh := 0
	for _, tc := range []struct {
		method, path string
		body         []byte
		limit        int64
		ok           int
	}{
		{http.MethodPost, session + "/decide", world, spec.maxSnapshotBytes(), http.StatusOK},
		{http.MethodPost, session + "/decide/batch", batch, spec.maxBatchBytes(), http.StatusOK},
		{http.MethodPost, session + "/feedback", []byte(`{"step":0,"step_cost":0.5}`), maxSmallBodyBytes, http.StatusNoContent},
		{http.MethodPut, "/v2/sessions/fresh", []byte(`{"num_vms":4,"num_hosts":3}`), maxSmallBodyBytes, http.StatusCreated},
	} {
		send := func(body []byte) (int, []byte) {
			path := tc.path
			if tc.method == http.MethodPut {
				fresh++
				path = fmt.Sprintf("%s%d", tc.path, fresh)
			}
			req, err := http.NewRequest(tc.method, ts.URL+path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, raw
		}
		room := int(tc.limit) - len(tc.body)
		for what, c := range map[string]struct {
			tail []byte
			want int
		}{
			"filled to the limit with spaces":  {bytes.Repeat([]byte{' '}, room), tc.ok},
			"filled to the limit with garbage": {bytes.Repeat([]byte{'x'}, room), tc.ok},
			"one space past the limit":         {bytes.Repeat([]byte{' '}, room+1), http.StatusRequestEntityTooLarge},
			"garbage past the limit":           {bytes.Repeat([]byte{'x'}, room+1), http.StatusRequestEntityTooLarge},
		} {
			status, raw := send(append(append([]byte(nil), tc.body...), c.tail...))
			if status != c.want {
				t.Fatalf("%s %s, %s: status %d, want %d: %s", tc.method, tc.path, what, status, c.want, raw)
			}
			var env errorResponse
			if status >= 400 && (json.Unmarshal(raw, &env) != nil || env.Error == "") {
				t.Fatalf("%s %s, %s: body %q is not the error envelope", tc.method, tc.path, what, raw)
			}
		}

		// 1 GiB declared, 1 KB sent: refused on the header.
		var reply []byte
		got := allocatedBy(func() { reply = rawSend(t, u.Host, tc.method, tc.path, 1<<30, 1024) })
		if !bytes.HasPrefix(reply, []byte("HTTP/1.1 413")) {
			t.Fatalf("%s %s under a 1 GiB header answered %q, want 413", tc.method, tc.path, firstLine(reply))
		}
		if got > 1<<20 {
			t.Fatalf("%s %s: a 1 GiB header made the process allocate %d bytes", tc.method, tc.path, got)
		}
	}

	// A declaration the limit admits — 64 MiB on a 10 000 × 1 000 session's
	// batch route — still reserves one read step at most.
	putSession(t, ts.URL, "grid", SessionSpec{NumVMs: 1000, NumHosts: 10000})
	const sent = 1024
	var reply []byte
	got := allocatedBy(func() {
		reply = rawSend(t, u.Host, http.MethodPost, "/v2/sessions/grid/decide/batch", maxBatchBodyBytes, sent)
	})
	if !bytes.HasPrefix(reply, []byte("HTTP/1.1 400")) {
		t.Fatalf("short body under a 64 MiB header answered %q, want 400", firstLine(reply))
	}
	if limit := uint64(bodyReadStep + 2*sent + 1<<20); got > limit {
		t.Fatalf("%d bytes under a %d-byte header made the process allocate %d bytes (limit %d)",
			sent, maxBatchBodyBytes, got, limit)
	}
}

// TestDecodeFallbackCounter: megh_snapshot_decode_fallback_total moves for
// the decide and decide/batch bodies encoding/json decoded — the full form
// that uploads a base, and an elided request spelled in JSON, indented or
// not — and stands still for the binary bodies SessionClient sends in steady
// state, and for feedback posts, which it does not count whatever their
// form.
func TestDecodeFallbackCounter(t *testing.T) {
	svc, ts := newSessionService(t, 0)
	ctx := context.Background()
	sc := NewClient(ts.URL, nil).Session("big")
	if _, err := sc.Create(ctx, elideSpec); err != nil {
		t.Fatal(err)
	}
	step := 0
	want := func(what string, fallback, elided int64) {
		t.Helper()
		if f, e := svc.decodeFallback.Value(), svc.elided.Value(); f != fallback || e != elided {
			t.Fatalf("after %s: %d fallback decodes, %d elided requests; want %d and %d", what, f, e, fallback, elided)
		}
	}
	want("the session PUT", 0, 0)
	for ; step < 4; step++ {
		if _, err := sc.Decide(ctx, elideWorld(step)); err != nil {
			t.Fatal(err)
		}
		if err := sc.Feedback(ctx, FeedbackRequest{Step: step, StepCost: 0.4}); err != nil {
			t.Fatal(err)
		}
	}
	want("one full and three elided decides", 1, 3)
	var batch BatchDecideRequest
	for ; step < 8; step++ {
		batch.Items = append(batch.Items, BatchDecideItem{
			State: elideWorld(step), Feedback: &FeedbackRequest{Step: step - 1, StepCost: 0.4}})
	}
	if _, err := sc.DecideBatchCtx(ctx, batch); err != nil {
		t.Fatal(err)
	}
	want("an all-elided batch", 1, 4)

	// The same elided snapshot in JSON, compact and indented: served, by
	// encoding/json.
	world := elideWorld(step)
	elided := elideSnapshot(&world, *sc.base.Load())
	indented, err := json.MarshalIndent(elided, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{mustMarshal(t, elided), indented} {
		resp, err := http.Post(ts.URL+"/v2/sessions/big/decide", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("elided decide in JSON: HTTP %d", resp.StatusCode)
		}
	}
	want("two elided decides in JSON", 3, 6)
	if status, _ := rawPost(t, ts.URL+"/v2/sessions/big/decide", "not a snapshot"); status != http.StatusBadRequest {
		t.Fatalf("a JSON string for a snapshot: HTTP %d", status)
	}
	want("a body that does not decode", 4, 6)
}

// grid10k is a 10 000 × 1 000 snapshot with full-precision utilizations —
// the grid10k-wire workload's shape: 594 KB in full, 48 KB elided.
func grid10k() StateRequest {
	r := rand.New(rand.NewSource(10))
	req := StateRequest{Step: 287, Hosts: make([]HostState, 10000), VMs: make([]VMState, 1000)}
	for i := range req.Hosts {
		req.Hosts[i] = HostState{MIPS: 4000, RAMMB: 8192, BandwidthMbps: 1000}
	}
	for j := range req.VMs {
		req.VMs[j] = VMState{Host: r.Intn(len(req.Hosts)), Utilization: r.Float64(),
			MIPS: 2500, RAMMB: 1024, BandwidthMbps: 100}
	}
	return req
}

// digestOf is staticDigest of r's static fields.
func digestOf(r *StateRequest) string {
	digest, _ := staticDigest(r.Hosts, r.VMs)
	return digest
}

// encodeElided is full snapshot r's binary elided body under its own digest.
func encodeElided(r *StateRequest) ([]byte, error) {
	digest, failed := staticDigest(r.Hosts, r.VMs)
	return appendBinaryState(nil, r, digest, failed)
}

// paperBatchRequest is a 16-item decide/batch request at the paper's
// 100 × 150 grid, every item carrying feedback, in full — what the
// batch-replay workload's client encodes — with the digest all its items'
// static fields share.
func paperBatchRequest() (req BatchDecideRequest, digest string) {
	r := rand.New(rand.NewSource(16))
	for k := 0; k < 16; k++ {
		world := testWorld(150, 100, false)
		world.Step = k
		for j := range world.VMs {
			world.VMs[j].Utilization = r.Float64()
		}
		digest = digestOf(&world)
		req.Items = append(req.Items, BatchDecideItem{
			State:    world,
			Feedback: &FeedbackRequest{Step: k - 1, StepCost: r.Float64(), EnergyCost: r.Float64(), SLACost: r.Float64()},
		})
	}
	return req, digest
}

// paperBatch is paperBatchRequest's binary body, every item elided, as it
// goes on the wire in steady state.
func paperBatch(tb testing.TB) []byte {
	req, digest := paperBatchRequest()
	body, err := appendBinaryBatch(nil, req.Items, digest)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestSnapshotCodecAllocs is the codec's allocation budget (`make
// bench-alloc-gate` runs it): decoding a 1 000-VM elided snapshot allocates
// the VM slice, the base string and the failed-host list, encoding one the
// buffer — not one object per VM or per number — and a 16-item batch
// decoded into the scratch the batch before left allocates at most the
// base string, not a base and a feedback per item.
func TestSnapshotCodecAllocs(t *testing.T) {
	req := grid10k()
	req.Hosts[17].Failed = true
	digest, failed := staticDigest(req.Hosts, req.VMs)
	body, err := appendBinaryState(nil, &req, digest, failed)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		var got StateRequest
		if bin, err := decodeWire(elidedMediaType, body, &got, new(requestScratch)); !bin || err != nil || len(got.VMs) != len(req.VMs) {
			t.Fatalf("binary %t, err %v, %d VMs", bin, err, len(got.VMs))
		}
	}); n > 4 {
		t.Errorf("decoding a 1000-VM elided snapshot took %.0f allocations, want at most 4", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := appendBinaryState(make([]byte, 0, elidedSizeHint(&req)), &req, digest, failed); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("encoding a 1000-VM elided snapshot took %.0f allocations, want at most 2", n)
	}
	batch := paperBatch(t)
	var sess session
	if n := testing.AllocsPerRun(20, func() {
		sc := sess.takeScratch()
		var got BatchDecideRequest
		if bin, err := decodeWire(elidedMediaType, batch, &got, sc); !bin || err != nil || len(got.Items) != 16 {
			t.Fatalf("binary %t, err %v, %d items", bin, err, len(got.Items))
		}
		sess.recycle(sc)
	}); n > 4 {
		t.Errorf("decoding a 16-item elided batch took %.0f allocations, want at most 4", n)
	}
}

// BenchmarkSnapshotCodec is the tracked benchmark behind the budget table's
// codec rows (DESIGN.md §7.5): the server's decode of the binary elided
// decide body and of a binary 16-item batch, the client's encode of each,
// and the full-form decode — encoding/json, the control, which must cost
// what it always did.
func BenchmarkSnapshotCodec(b *testing.B) {
	grid := grid10k()
	digest, failed := staticDigest(grid.Hosts, grid.VMs)
	elided, err := appendBinaryState(nil, &grid, digest, failed)
	if err != nil {
		b.Fatal(err)
	}
	// What SessionClient.Decide computes per call to learn whether it may
	// elide: one allocation, the hex string.
	b.Run("digest-grid10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d, _ := staticDigest(grid.Hosts, grid.VMs); d != digest {
				b.Fatalf("digest %s, want %s", d, digest)
			}
		}
	})
	// Decodes run as a session's do in steady state: into the scratch the
	// request before left behind.
	decode := func(contentType string, body []byte, v func() any) func(*testing.B) {
		return func(b *testing.B) {
			var sess session
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := sess.takeScratch()
				if bin, err := decodeWire(contentType, body, v(), sc); err != nil || bin != (contentType == elidedMediaType) {
					b.Fatalf("binary %t, err %v", bin, err)
				}
				sess.recycle(sc)
			}
		}
	}
	b.Run("decode-elided-grid10k", decode(elidedMediaType, elided, func() any { return new(StateRequest) }))
	b.Run("encode-elided-grid10k", func(b *testing.B) {
		b.SetBytes(int64(len(elided)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := appendBinaryState(make([]byte, 0, elidedSizeHint(&grid)), &grid, digest, failed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-batch16-100x150", decode(elidedMediaType, paperBatch(b), func() any { return new(BatchDecideRequest) }))
	b.Run("encode-batch16-100x150", func(b *testing.B) {
		// As DecideBatchCtx writes the body, into the view's reused buffer.
		req, digest := paperBatchRequest()
		var body []byte
		encode := func() {
			var err error
			if body, err = appendBinaryBatch(body[:0], req.Items, digest); err != nil {
				b.Fatal(err)
			}
		}
		wire := BatchDecideRequest{Items: make([]BatchDecideItem, len(req.Items))}
		for i, it := range req.Items {
			wire.Items[i] = BatchDecideItem{State: elideSnapshot(&it.State, digest), Feedback: it.Feedback}
		}
		if encode(); !bytes.Equal(body, wireBody(&wire)) {
			b.Fatal("the encoder's batch differs from the reference layout")
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encode()
		}
	})
	full, err := json.Marshal(testWorld(150, 100, false))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode-full-100x150", decode("application/json", full, func() any { return new(StateRequest) }))
}
