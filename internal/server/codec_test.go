package server

import (
	"bytes"
	"context"
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

// elideSnapshot returns full snapshot r in the elided form; digest is
// staticDigest of r's static fields. It is the reference for the append
// encoder: SessionClient must put on the wire exactly json.Marshal of this
// value.
func elideSnapshot(r *StateRequest, digest string) StateRequest {
	out := StateRequest{Step: r.Step, Base: digest, VMs: make([]VMState, len(r.VMs))}
	for i := range r.Hosts {
		if r.Hosts[i].Failed {
			out.FailedHosts = append(out.FailedHosts, i)
		}
	}
	for j := range r.VMs {
		out.VMs[j] = VMState{Host: r.VMs[j].Host, Utilization: r.VMs[j].Utilization}
	}
	return out
}

// decodeScratch is a session only for its scratch slot.
var decodeScratch session

// decodeAgrees is the decoder's differential oracle: decodeRequest and the
// json.Decoder call it stands in for must agree on data — error or not, the
// error's text, the decoded value, and every float64 in it to the bit, which
// reflect.DeepEqual alone does not check (it holds −0 == +0). It returns
// whether the fast path took the input.
func decodeAgrees[T any](t *testing.T, data []byte) bool {
	t.Helper()
	var got, want T
	// Decode into storage earlier calls have used, as a session's requests do.
	sc := decodeScratch.takeScratch()
	defer decodeScratch.recycle(sc)
	fallback, gotErr := decodeRequest(data, &got, sc)
	fast := !fallback
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("decodeRequest: %v\nencoding/json: %v\ninput: %q", gotErr, wantErr, data)
	}
	if !reflect.DeepEqual(got, want) || !slices.Equal(floatBits(nil, reflect.ValueOf(got)), floatBits(nil, reflect.ValueOf(want))) {
		t.Fatalf("decodeRequest: %+v\nencoding/json: %+v\ninput: %q", got, want, data)
	}
	if fast && gotErr != nil {
		t.Fatalf("fast path returned %v for %q", gotErr, data)
	}
	return fast
}

// floatBits appends the bits of every float64 v holds, in field order.
func floatBits(out []uint64, v reflect.Value) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		out = append(out, math.Float64bits(v.Float()))
	case reflect.Pointer:
		if !v.IsNil() {
			out = floatBits(out, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = floatBits(out, v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = floatBits(out, v.Index(i))
		}
	}
	return out
}

// batchWraps returns state as the state of decide/batch items: alone, and
// behind an item that carries feedback.
func batchWraps(state []byte) [][]byte {
	one := fmt.Sprintf(`{"items":[{"state":%s}]}`, state)
	two := fmt.Sprintf(`{"items":[{"feedback":{"step":3,"step_cost":0.5,"sla_cost":1e-7},"state":%s},{"state":%s}]}`, state, state)
	return [][]byte{[]byte(one), []byte(two)}
}

// codecSeed is one input of the decoder's differential table; fast says
// whether the hand-written decoder, not encoding/json, must take it.
type codecSeed struct {
	name, body string
	fast       bool
}

// codecSeeds is the decoder's table: the canonical elided form and its
// near misses, against the 3 × 2 world whose base FuzzDecideRequestJSON's
// session holds. The fuzz target starts from the same inputs: testdata/fuzz
// holds them as files, which TestDecodeFastPath keeps in step.
func codecSeeds() []codecSeed {
	world := testWorld(3, 2, true)
	head := fmt.Sprintf(`{"step":4,"base":"%s",`, staticDigest(world.Hosts, world.VMs))
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
		{"whitespace", " {\n \"step\" : 4, \"base\" : \"d\" ,\t\"vms\" : [ { \"host\" : 0 , \"utilization\" : 1 } ] } ", false},
		{"trailing-newline", canonical + "\n", false},
		{"trailing-garbage", canonical + "x", false},
		{"case-folded-key", head + vms(`{"Host":0,"utilization":1}`), false},
		{"escaped-key", head + vms(`{"h\u006fst":0,"utilization":1}`), false},
		{"duplicate-host", head + vms(`{"host":1,"host":0,"utilization":1}`), false},
		{"swapped-keys", head + vms(`{"utilization":1,"host":0}`), false},
		{"utilization-null", head + vms(`{"host":0,"utilization":null}`), false},
		{"utilization-1e999", head + vms(`{"host":0,"utilization":1e999}`), false},
		{"utilization-string", head + vms(`{"host":0,"utilization":"1"}`), false},
		{"utilization-bare-dot", head + vms(`{"host":0,"utilization":1.}`), false},
		{"utilization-hex", head + vms(`{"host":0,"utilization":0x1p-2}`), false},
		{"utilization-inf", head + vms(`{"host":0,"utilization":inf}`), false},
		{"utilization-long", head + vms(`{"host":0,"utilization":0.`+strings.Repeat("3", 40)+`}`), false},
		{"host-float", head + vms(`{"host":1.0,"utilization":1}`), false},
		{"host-exponent", head + vms(`{"host":1e0,"utilization":1}`), false},
		{"host-leading-zero", head + vms(`{"host":01,"utilization":1}`), false},
		{"host-overflow", head + vms(`{"host":99999999999999999999,"utilization":1}`), false},
		{"static-field", head + vms(`{"host":0,"utilization":1,"mips":9}`), false},
		{"empty-vms", head + `"vms":[]}`, false},
		{"null-vms", head + `"vms":null}`, false},
		{"empty-failed-hosts", head + `"failed_hosts":[],` + vms(vm0), false},
		{"empty-base", `{"step":4,"base":"",` + vms(vm0), false},
		{"escaped-base", `{"step":4,"base":"a\"b",` + vms(vm0), false},
		{"non-ascii-base", `{"step":4,"base":"é",` + vms(vm0), false},
		{"hosts-beside-base", head + `"hosts":[{"mips":1,"ram_mb":1}],` + vms(vm0), false},
		{"base-after-vms", `{"step":4,` + strings.TrimSuffix(vms(vm0), "}") + `,"base":"d"}`, false},
		{"braces-only", head + `"vms":[` + strings.Repeat("{", 64) + `]}`, false},
		{"full-form", string(full), false},
		{"empty-object", `{}`, false},
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

// TestDecodeFastPath pins which request bodies the hand-written decoder takes
// — a change that silently sent the canonical form to encoding/json would
// otherwise show in a benchmark only — and that on every one of them, fast
// or not, the result is encoding/json's. The table is also committed as the
// fuzz target's seed corpus.
func TestDecodeFastPath(t *testing.T) {
	for _, s := range codecSeeds() {
		t.Run(s.name, func(t *testing.T) {
			if fast := decodeAgrees[StateRequest](t, []byte(s.body)); fast != s.fast {
				t.Errorf("fast path taken: %t, want %t\n%s", fast, s.fast, s.body)
			}
			for _, wrapped := range batchWraps([]byte(s.body)) {
				if fast := decodeAgrees[BatchDecideRequest](t, wrapped); fast != s.fast {
					t.Errorf("as a batch item, fast path taken: %t, want %t\n%s", fast, s.fast, wrapped)
				}
			}
			checkGolden(t, "fuzz/FuzzDecideRequestJSON/seed_codec_"+s.name,
				[]byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.body)))
		})
	}

	// What only a batch can get wrong.
	const state = `{"step":4,"base":"d","vms":[{"host":0,"utilization":1}]}`
	for name, tc := range map[string]struct {
		body string
		fast bool
	}{
		"every cost":         {`{"items":[{"feedback":{"step":3,"step_cost":0.5,"energy_cost":0.25,"sla_cost":-0,"resource_cost":2e-9},"state":` + state + `}]}`, true},
		"resource cost only": {`{"items":[{"feedback":{"step":3,"step_cost":0.5,"resource_cost":1},"state":` + state + `}]}`, true},
		"costs out of order": {`{"items":[{"feedback":{"step":3,"step_cost":0.5,"sla_cost":1,"energy_cost":1},"state":` + state + `}]}`, false},
		"feedback null":      {`{"items":[{"feedback":null,"state":` + state + `}]}`, false},
		"feedback last":      {`{"items":[{"state":` + state + `,"feedback":{"step":3,"step_cost":0.5}}]}`, false},
		"no step cost":       {`{"items":[{"feedback":{"step":3},"state":` + state + `}]}`, false},
		"no items":           {`{"items":[]}`, false},
		"null items":         {`{"items":null}`, false},
		"item without state": {`{"items":[{}]}`, false},
		"trailing comma":     {`{"items":[{"state":` + state + `},]}`, false},
		"bare state":         {state, false},
		"bases differ":       {`{"items":[{"state":` + state + `},{"state":` + strings.Replace(state, `"d"`, `"e"`, 1) + `}]}`, true},
	} {
		if fast := decodeAgrees[BatchDecideRequest](t, []byte(tc.body)); fast != tc.fast {
			t.Errorf("batch %s: fast path taken: %t, want %t", name, fast, tc.fast)
		}
	}

	// The feedback route's body, which the same decoder reads.
	for body, fast := range map[string]bool{
		`{"step":3,"step_cost":0.5}`: true,
		`{"step":3,"step_cost":-0.0,"energy_cost":0.25,"sla_cost":1e-7,"resource_cost":0.9007199254740993}`: true,
		`{"step":3,"step_cost":0.5}` + "\n":                       false,
		`{"step":3, "step_cost":0.5}`:                             false,
		`{"step_cost":0.5,"step":3}`:                              false,
		`{"step":3,"step_cost":0.5,"sla_cost":1,"energy_cost":1}`: false,
		`{"step":3}`:                   false,
		`{"step":3,"step_cost":1e999}`: false,
		`{"step":3.5,"step_cost":1}`:   false,
		`not json`:                     false,
	} {
		if got := decodeAgrees[FeedbackRequest](t, []byte(body)); got != fast {
			t.Errorf("feedback %s: fast path taken: %t, want %t", body, got, fast)
		}
	}
}

// wireSpy is a stand-in service that records the body of every decide and
// decide/batch request and answers 200, or 409 to the requests conflict
// picks out.
type wireSpy struct {
	mu       sync.Mutex
	bodies   [][]byte
	conflict func(n int) bool
}

func (w *wireSpy) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	w.mu.Lock()
	n := len(w.bodies)
	w.bodies = append(w.bodies, body)
	w.mu.Unlock()
	if w.conflict != nil && w.conflict(n) {
		writeError(rw, http.StatusConflict, errBaseConflict)
		return
	}
	if strings.HasSuffix(r.URL.Path, "/batch") {
		writeJSON(rw, http.StatusOK, BatchDecideResponse{})
		return
	}
	writeJSON(rw, http.StatusOK, DecideResponse{})
}

// next returns the bodies recorded since the last call.
func (w *wireSpy) next() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.bodies
	w.bodies = nil
	return out
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// parentBatchWire is the request DecideBatchCtx marshalled before the append
// encoder: every elidable item whose static fields digest to the base in
// force elided, the rest — and with them the base for the items after —
// in full.
func parentBatchWire(held string, req BatchDecideRequest) BatchDecideRequest {
	wire := BatchDecideRequest{Items: make([]BatchDecideItem, len(req.Items))}
	base := held
	for i := range req.Items {
		it := &req.Items[i]
		wire.Items[i] = *it
		if digest := staticDigest(it.State.Hosts, it.State.VMs); digest != base {
			base = digest
		} else if elidable(&it.State) {
			wire.Items[i].State = elideSnapshot(&it.State, digest)
		}
	}
	return wire
}

// TestSessionClientWireBytes: the bytes SessionClient puts on the wire are
// json.Marshal of the value it marshalled before it had an encoder of its
// own — for single decides and batches, with and without feedback and failed
// hosts, with the static half changing mid-run so that a full snapshot or a
// full item leads, or changing only in the sign of a zero MIPS, and for the
// one full resend after a 409.
func TestSessionClientWireBytes(t *testing.T) {
	spy := &wireSpy{}
	ts := httptest.NewServer(spy)
	defer ts.Close()
	ctx := context.Background()
	c := NewClient(ts.URL, nil)
	c.SetRetryPolicy(1, 0)
	sc := c.Session("wire")

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
	expect := func(what string, want ...[]byte) {
		t.Helper()
		got := spy.next()
		if len(got) != len(want) {
			t.Fatalf("%s: %d requests on the wire, want %d", what, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s, request %d:\n got %s\nwant %s", what, i, got[i], want[i])
			}
		}
	}

	var digest string
	for step := 0; step < 10; step++ {
		req := world(step)
		if _, err := sc.Decide(ctx, req); err != nil {
			t.Fatal(err)
		}
		if d := staticDigest(req.Hosts, req.VMs); d != digest {
			digest = d
			expect(fmt.Sprintf("step %d, full", step), mustMarshal(t, req))
			continue
		}
		expect(fmt.Sprintf("step %d, elided", step), mustMarshal(t, elideSnapshot(&req, digest)))
	}

	// Batches: all elided; statics changing back mid-batch, so a full item
	// sits between elided ones; a fresh view, whose first item leads in full.
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
	for what, run := range map[string]struct {
		view *SessionClient
		req  BatchDecideRequest
	}{
		"all elided":               {sc, batch(10, 16)},
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
		expect("batch, "+what, mustMarshal(t, parentBatchWire(held, run.req)))
	}

	// A 409 to an elided request: the same request again, in full, once.
	spy.conflict = func(n int) bool { return n == 0 }
	req := world(30)
	if _, err := sc.Decide(ctx, req); err != nil {
		t.Fatal(err)
	}
	expect("decide across a 409", mustMarshal(t, elideSnapshot(&req, digest)), mustMarshal(t, req))
	breq := batch(31, 34)
	if _, err := sc.DecideBatchCtx(ctx, breq); err != nil {
		t.Fatal(err)
	}
	expect("batch across a 409", mustMarshal(t, parentBatchWire(digest, breq)), mustMarshal(t, breq))

	// Feedback posts go through the append encoder too.
	spy.conflict = nil
	for _, fb := range []FeedbackRequest{
		{Step: 3, StepCost: 0.4},
		{Step: 4, StepCost: 1e21, EnergyCost: math.Copysign(0, -1), SLACost: 1e-9, ResourceCost: 3},
	} {
		if err := sc.Feedback(ctx, fb); err != nil {
			t.Fatal(err)
		}
		expect("feedback", mustMarshal(t, fb))
	}
}

// TestDecideResponseEncoder: the service's decide answer is json.Marshal of
// the DecideResponse it used to build, with or without migrations.
func TestDecideResponseEncoder(t *testing.T) {
	for _, migs := range [][]sim.Migration{nil, {{VM: 0, Dest: 9999}}, {{VM: 12, Dest: 3}, {VM: 7, Dest: 0}, {VM: 999, Dest: 41}}} {
		want := DecideResponse{Step: 287 * len(migs), Migrations: []MigrationDecision{}}
		for _, m := range migs {
			want.Migrations = append(want.Migrations, MigrationDecision{VM: m.VM, Dest: m.Dest})
		}
		if got := appendDecideResponse(nil, want.Step, migs); !bytes.Equal(got, mustMarshal(t, want)) {
			t.Fatalf("appendDecideResponse wrote %s, json.Marshal %s", got, mustMarshal(t, want))
		}
	}
}

// TestEncoderFloats: the append encoder writes every float64 the way
// encoding/json does — the 'f'/'e' switch at 1e-6 and 1e21, the e-09 → e-9
// clean-up, −0, the subnormal and the largest, and floatEdges, a VM's worth
// per request — and refuses what it refuses with its own error.
func TestEncoderFloats(t *testing.T) {
	spy := &wireSpy{}
	ts := httptest.NewServer(spy)
	defer ts.Close()
	ctx := context.Background()
	sc := NewClient(ts.URL, nil).Session("floats")
	req := elideWorld(0)
	digest := staticDigest(req.Hosts, req.VMs)
	if _, err := sc.Decide(ctx, req); err != nil {
		t.Fatal(err)
	}
	spy.next()

	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.3, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 1.25e-300,
		1e21, 1e20, 123456789012345678901234, 1e100, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Pi, 1.0 / 3,
	}
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 200; i++ {
		floats = append(floats, math.Float64frombits(r.Uint64()), r.Float64(), r.NormFloat64()*1e-6)
	}
	// send posts req as a decide and as a batch item with feedback f.
	send := func(f float64) {
		t.Helper()
		if _, err := sc.Decide(ctx, req); err != nil {
			t.Fatalf("%g: %v", f, err)
		}
		breq := BatchDecideRequest{Items: []BatchDecideItem{{
			State:    req,
			Feedback: &FeedbackRequest{Step: 1, StepCost: f, EnergyCost: f, SLACost: -f, ResourceCost: f / 2},
		}}}
		if _, err := sc.DecideBatchCtx(ctx, breq); err != nil {
			t.Fatalf("%g in a batch: %v", f, err)
		}
		got := spy.next()
		want := [][]byte{mustMarshal(t, elideSnapshot(&req, digest)), mustMarshal(t, parentBatchWire(digest, breq))}
		for i := range want {
			if len(got) != 2 || !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%g (bits %#x), request %d:\n got %s\nwant %s", f, math.Float64bits(f), i, got[i], want[i])
			}
		}
	}
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		req.VMs[3].Utilization = f
		send(f)
	}
	edges := floatEdges()
	for i := 0; i < len(edges); i += len(req.VMs) {
		for j := range req.VMs {
			req.VMs[j].Utilization = edges[(i+j)%len(edges)]
		}
		send(edges[i])
	}

	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req.VMs[3].Utilization = f
		elided := elideSnapshot(&req, digest)
		_, jsonErr := json.Marshal(elided)
		_, err := sc.Decide(ctx, req)
		var unsupported *json.UnsupportedValueError
		if !errors.As(err, &unsupported) || err.Error() != encodingError(sc.prefix+"/decide", jsonErr).Error() {
			t.Fatalf("%g: Decide returned %v, want encoding/json's %v", f, err, jsonErr)
		}
		for what, breq := range map[string]BatchDecideRequest{
			"state":    {Items: []BatchDecideItem{{State: req}}},
			"feedback": {Items: []BatchDecideItem{{State: elideWorld(1), Feedback: &FeedbackRequest{ResourceCost: f}}}},
		} {
			_, jsonErr := json.Marshal(parentBatchWire(digest, breq))
			_, err := sc.DecideBatchCtx(ctx, breq)
			if !errors.As(err, &unsupported) || err.Error() != encodingError(sc.prefix+"/decide/batch", jsonErr).Error() {
				t.Fatalf("%g in a batch %s: DecideBatchCtx returned %v, want encoding/json's %v", f, what, err, jsonErr)
			}
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
// that uploads a base, and an elided body that is not the canonical bytes —
// and stands still for what SessionClient sends in steady state, and for
// feedback posts, which it does not count whichever decoder reads them.
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

	// The same elided snapshot, indented: served, but by encoding/json.
	world := elideWorld(step)
	indented, err := json.MarshalIndent(elideSnapshot(&world, *sc.base.Load()), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v2/sessions/big/decide", "application/json", bytes.NewReader(indented))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("indented elided decide: HTTP %d", resp.StatusCode)
	}
	want("a non-canonical elided decide", 2, 5)
	if status, _ := rawPost(t, ts.URL+"/v2/sessions/big/decide", "not a snapshot"); status != http.StatusBadRequest {
		t.Fatalf("a JSON string for a snapshot: HTTP %d", status)
	}
	want("a body that does not decode", 3, 5)
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
		digest = staticDigest(world.Hosts, world.VMs)
		req.Items = append(req.Items, BatchDecideItem{
			State:    world,
			Feedback: &FeedbackRequest{Step: k - 1, StepCost: r.Float64(), EnergyCost: r.Float64(), SLACost: r.Float64()},
		})
	}
	return req, digest
}

// paperBatch is paperBatchRequest with every item elided, as it goes on the
// wire in steady state.
func paperBatch(tb testing.TB) []byte {
	req, digest := paperBatchRequest()
	for i := range req.Items {
		req.Items[i].State = elideSnapshot(&req.Items[i].State, digest)
	}
	raw, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestSnapshotCodecAllocs is the codec's allocation budget (`make
// bench-alloc-gate` runs it): decoding a 1 000-VM elided snapshot allocates
// the VM slice and the base string, encoding one the buffer — not one object
// per VM or per number — and a 16-item batch decoded into the scratch the
// batch before left allocates one base string, not a base and a feedback per
// item.
func TestSnapshotCodecAllocs(t *testing.T) {
	req := grid10k()
	req.Hosts[17].Failed = true
	digest := staticDigest(req.Hosts, req.VMs)
	body, err := appendElidedState(nil, &req, digest)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		var got StateRequest
		if fallback, err := decodeRequest(body, &got, new(requestScratch)); fallback || err != nil || len(got.VMs) != len(req.VMs) {
			t.Fatalf("fallback %t, err %v, %d VMs", fallback, err, len(got.VMs))
		}
	}); n > 4 {
		t.Errorf("decoding a 1000-VM elided snapshot took %.0f allocations, want at most 4", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := appendElidedState(make([]byte, 0, elidedSizeHint(&req)), &req, digest); err != nil {
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
		if fallback, err := decodeRequest(batch, &got, sc); fallback || err != nil || len(got.Items) != 16 {
			t.Fatalf("fallback %t, err %v, %d items", fallback, err, len(got.Items))
		}
		sess.recycle(sc)
	}); n > 4 {
		t.Errorf("decoding a 16-item elided batch took %.0f allocations, want at most 4", n)
	}
}

// BenchmarkSnapshotCodec is the tracked benchmark behind the budget table's
// codec rows (DESIGN.md §7.5): the server's decode of the elided decide body
// and of an elided 16-item batch, the client's encode of each, and the
// full-form decode — the encoding/json fallback, which must cost what it
// always did.
func BenchmarkSnapshotCodec(b *testing.B) {
	grid := grid10k()
	digest := staticDigest(grid.Hosts, grid.VMs)
	elided, err := appendElidedState(nil, &grid, digest)
	if err != nil {
		b.Fatal(err)
	}
	// Decodes run as a session's do in steady state: into the scratch the
	// request before left behind.
	decode := func(body []byte, v func() any, wantFallback bool) func(*testing.B) {
		return func(b *testing.B) {
			var sess session
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := sess.takeScratch()
				if fallback, err := decodeRequest(body, v(), sc); err != nil || fallback != wantFallback {
					b.Fatalf("fallback %t, err %v", fallback, err)
				}
				sess.recycle(sc)
			}
		}
	}
	b.Run("decode-elided-grid10k", decode(elided, func() any { return new(StateRequest) }, false))
	b.Run("encode-elided-grid10k", func(b *testing.B) {
		b.SetBytes(int64(len(elided)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := appendElidedState(make([]byte, 0, elidedSizeHint(&grid)), &grid, digest); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-batch16-100x150", decode(paperBatch(b), func() any { return new(BatchDecideRequest) }, false))
	b.Run("encode-batch16-100x150", func(b *testing.B) {
		// As DecideBatchCtx writes the body, into the view's reused buffer.
		req, digest := paperBatchRequest()
		var body []byte
		encode := func() {
			body = append(body[:0], `{"items":[`...)
			for i := range req.Items {
				if i > 0 {
					body = append(body, ',')
				}
				var err error
				if body, err = appendBatchItem(body, &req.Items[i], digest, true); err != nil {
					b.Fatal(err)
				}
			}
			body = append(body, `]}`...)
		}
		if encode(); !bytes.Equal(body, paperBatch(b)) {
			b.Fatal("the encoder's batch differs from json.Marshal's")
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
	b.Run("decode-full-100x150", decode(full, func() any { return new(StateRequest) }, true))
}
