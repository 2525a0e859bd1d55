package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// fillFromWorld materializes the full form of an elided request resolveBase
// accepted against world's base: the reference the elided path must agree
// with.
func fillFromWorld(r, world StateRequest) StateRequest {
	full := StateRequest{Step: r.Step}
	full.Hosts = append(full.Hosts, world.Hosts...)
	for _, i := range r.FailedHosts {
		full.Hosts[i].Failed = true
	}
	full.VMs = append(full.VMs, r.VMs...)
	for j := range full.VMs {
		full.VMs[j].MIPS = world.VMs[j].MIPS
		full.VMs[j].RAMMB = world.VMs[j].RAMMB
		full.VMs[j].BandwidthMbps = world.VMs[j].BandwidthMbps
	}
	return full
}

// FuzzDecideRequestJSON drives the decide ingress path for JSON bodies —
// decodeWire, resolveBase (Validate for the full form, the base checks for the elided
// one), snapshot conversion — with arbitrary bytes, against a session that
// already holds a 3×2 base. Nothing may panic, and any request the path
// accepts must convert into a structurally sound snapshot: placement
// bijection intact, utilizations finite, MIPS demand consistent. An elided
// request is accepted only if its filled-in full form validates, and then
// converts to the very same snapshot. This is the boundary a hostile or
// buggy VMM client hits.
func FuzzDecideRequestJSON(f *testing.F) {
	world := testWorld(3, 2, true)
	held := newSnapshotBase(&world, digestOf(&world))

	valid, err := json.Marshal(world)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"step":0,"hosts":[{"mips":4000,"ram_mb":8192}],"vms":[{"host":0,"utilization":0.5,"mips":1000,"ram_mb":512}]}`))
	f.Add([]byte(`{"step":-1,"hosts":[],"vms":[]}`))
	f.Add([]byte(`{"vms":[{"host":9}]}`))
	f.Add([]byte(`{"hosts":[{"mips":1e309}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	// Elided seeds: well-formed, then one fault each.
	const vms = `"vms":[{"host":0,"utilization":1},{"host":0,"utilization":0.3},{"host":1,"utilization":0.3}]`
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"failed_hosts":[1],%s}`, held.digest, vms)))
	f.Add([]byte(fmt.Sprintf(`{"step":4,"failed_hosts":[1],%s}`, vms)))                                     // no base named
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":"feedface",%s}`, vms)))                                      // digest mismatch
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"failed_hosts":[2],%s}`, held.digest, vms)))              // out of range
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"failed_hosts":[-1],%s}`, held.digest, vms)))             // out of range
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"failed_hosts":[1,1],%s}`, held.digest, vms)))            // duplicated
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"vms":[{"host":0,"utilization":1}]}`, held.digest)))      // another size
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"hosts":[{"mips":1,"ram_mb":1}],%s}`, held.digest, vms))) // hosts and base
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"vms":[{"host":0,"utilization":1,"mips":9},{"host":0,"utilization":0.3},{"host":1,"utilization":2}]}`, held.digest)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req StateRequest
		if _, err := decodeWire("application/json", data, &req, nil); err != nil {
			return
		}
		// Resource guard: JSON can declare arbitrarily many hosts/VMs;
		// conversion is linear but keep the harness snappy.
		if len(req.Hosts) > 256 || len(req.VMs) > 256 {
			return
		}
		// A full form sizes its own session, so every shape Validate accepts
		// reaches the conversion; an elided one meets the held 3×2 base.
		spec := SessionSpec{NumVMs: len(req.VMs), NumHosts: len(req.Hosts)}
		base, err := resolveBase(held, &req, "fuzz", spec)
		if err != nil {
			return
		}
		nH, nV := len(base.hostSpecs), len(base.vmSpecs)
		snap := new(retainedSnapshot).fill(&req, base, 0.7, 300)
		sameSnapshot(t, "first fill", snap, req.snapshot(base, 0.7, 300))
		if len(snap.HostVMs) != nH || len(snap.VMHost) != nV || len(req.VMs) != nV {
			t.Fatalf("snapshot dims %d×%d, request has %d VMs, base %d×%d",
				len(snap.HostVMs), len(snap.VMHost), len(req.VMs), nH, nV)
		}
		seen := make([]bool, nV)
		for h, vms := range snap.HostVMs {
			for _, j := range vms {
				if j < 0 || j >= nV || seen[j] {
					t.Fatalf("host %d lists VM %d out of range or twice", h, j)
				}
				seen[j] = true
				if snap.VMHost[j] != h {
					t.Fatalf("VM %d in host %d's list but VMHost says %d", j, h, snap.VMHost[j])
				}
			}
		}
		for j, ok := range seen {
			if !ok {
				t.Fatalf("VM %d missing from every host list", j)
			}
		}
		for i, u := range snap.HostUtil {
			if math.IsNaN(u) || math.IsInf(u, 0) || u < 0 {
				t.Fatalf("host %d utilization %g from validated request", i, u)
			}
		}
		for j, mips := range snap.VMMIPS {
			if math.IsNaN(mips) || math.IsInf(mips, 0) || mips < 0 {
				t.Fatalf("VM %d demand %g MIPS from validated request", j, mips)
			}
		}
		if req.Base == "" {
			return
		}
		// Accepted elided form: the full form it stands for must be
		// acceptable too, resolve to the same base, and mean the same world.
		full := fillFromWorld(req, world)
		fullBase, err := resolveBase(held, &full, "fuzz", SessionSpec{NumVMs: nV, NumHosts: nH})
		if err != nil {
			t.Fatalf("elided request accepted, but its full form is refused: %v\nelided: %s", err, data)
		}
		if fullBase != held {
			t.Fatalf("filled full form digests to %q, base is %q", fullBase.digest, held.digest)
		}
		sameSnapshot(t, "elided form against its full form", snap, full.snapshot(fullBase, 0.7, 300))
	})
}

// FuzzDecideRequestBinary drives the binary decoder with arbitrary bytes, the
// first of which picks what the rest is posted as — a snapshot ('s'), a
// decide/batch body ('b') or a feedback post (anything else). Nothing may
// panic. A body the decoder accepts must be the one encoding of its value —
// wireBody writes it back byte for byte — and mean what its JSON spelling
// means: json.Marshal takes the value, encoding/json reads it back to the bit
// (but for the omitempty costs, which JSON delivers as +0 where the bits say
// −0), and two like services whose sessions hold the same 3 × 2 base, one
// sent the binary body and the other its JSON, answer alike: the same status
// and the same bytes, decisions and error texts included.
//
// The seeds are TestBinaryBodyRefusals' table, committed under testdata/fuzz.
func FuzzDecideRequestBinary(f *testing.F) {
	world := testWorld(3, 2, true)
	var handlers [2]http.Handler // binary, JSON
	for i := range handlers {
		svc, err := New(Config{NumVMs: 3, NumHosts: 2})
		if err != nil {
			f.Fatal(err)
		}
		if _, _, err := svc.mgr.put("fuzz", SessionSpec{NumVMs: 3, NumHosts: 2}); err != nil {
			f.Fatal(err)
		}
		handlers[i] = svc.Handler()
		postOK(f, handlers[i], "/v2/sessions/fuzz/decide", "application/json", mustMarshal(f, world))
	}
	post := func(h http.Handler, route, contentType string, body []byte) (int, string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v2/sessions/fuzz"+route, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind, body := data[0], data[1:]
		sc := decodeScratch.takeScratch()
		defer decodeScratch.recycle(sc)
		v, err := decodeKind(kind, body, sc)
		if err != nil {
			return
		}
		if again := wireBody(v); !bytes.Equal(again, body) {
			t.Fatalf("accepted %x, which re-encodes to %x", body, again)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("json.Marshal of an accepted %T: %v", v, err)
		}
		var route string
		switch v := v.(type) {
		case *StateRequest:
			route = "/decide"
			jsonAgrees(t, raw, v)
		case *BatchDecideRequest:
			route = "/decide/batch"
			for i := range v.Items {
				if fb := v.Items[i].Feedback; fb != nil {
					positiveZeroCosts(fb)
				}
			}
			jsonAgrees(t, raw, v)
		case *FeedbackRequest:
			route = "/feedback"
			positiveZeroCosts(v)
			jsonAgrees(t, raw, v)
		}
		binCode, binBody := post(handlers[0], route, elidedMediaType, body)
		jsonCode, jsonBody := post(handlers[1], route, "application/json", raw)
		if binCode != jsonCode || binBody != jsonBody {
			t.Fatalf("binary body answered %d %s\nits JSON %s answered %d %s", binCode, binBody, raw, jsonCode, jsonBody)
		}
	})
}

// FuzzDecideResponseBinary drives the client's decoder for binary answers
// with arbitrary bytes, the first of which picks what the rest is read as —
// a decide/batch's answer ('b') or a decide's (anything else). Nothing may
// panic. An answer the decoder accepts must be the one encoding of its
// decisions — the service's encoder writes it back byte for byte — and
// decode to exactly what encoding/json reads from the service's JSON answer
// with the same decisions.
//
// The seeds are TestDecideAnswerRefusals' table, committed under
// testdata/fuzz.
func FuzzDecideResponseBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind, body := data[0], data[1:]
		v := newAnswer(kind)
		if decodeAnswer(body, v) != nil {
			return
		}
		steps, outs := decisionsOf(v)
		if again := answer(t, kind == 'b', true, steps, outs); !bytes.Equal(again, body) {
			t.Fatalf("accepted %x, which re-encodes to %x", body, again)
		}
		fromJSON := newAnswer(kind)
		if err := json.Unmarshal(answer(t, kind == 'b', false, steps, outs), fromJSON); err != nil || !reflect.DeepEqual(v, fromJSON) {
			t.Fatalf("binary answer %x decodes to %+v; its JSON to %+v (%v)", body, v, fromJSON, err)
		}
	})
}

// positiveZeroCosts turns fb's −0 optional costs to +0, as a JSON round trip
// does: json.Marshal leaves omitempty zeros of either sign out.
func positiveZeroCosts(fb *FeedbackRequest) {
	for _, c := range []*float64{&fb.EnergyCost, &fb.SLACost, &fb.ResourceCost} {
		if *c == 0 {
			*c = 0
		}
	}
}

// jsonAgrees checks that encoding/json reads raw back to want.
func jsonAgrees[T any](t *testing.T, raw []byte, want *T) {
	t.Helper()
	var got T
	if err := json.Unmarshal(raw, &got); err != nil || !same(&got, want) {
		t.Fatalf("encoding/json read %s back as %+v (%v), want %+v", raw, got, err, *want)
	}
}

// FuzzElidedNumber: whatever number text an elided request spells in JSON —
// data, as a VM's utilization and as a step cost — the binary body carries
// the value encoding/json reads from it, to the bit (viaBinary). Where
// encoding/json refuses the text there is no value to carry. Its seeds run
// as regression cases; FuzzDecideRequestBinary is the target that fuzzes
// the binary body's bits.
func FuzzElidedNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "-0.0", "0.3", "1", "0.12345678901234568", "0.9007199254740993",
		"0.0000010000000000000002", "0.12345678901234567891", "18446744073709551615.5",
		"9.99e-7", "1E+0", "1e999", "0.30000000000000004}", "01", "1.", ".5", "-", "1e", "1e+",
		"0x1p-2", "inf", "1_0", "0." + strings.Repeat("3", 40),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		state := append([]byte(`{"step":4,"base":"d","vms":[{"host":0,"utilization":`), data...)
		viaBinary[StateRequest](t, append(state, "}]}"...))
		feedback := append([]byte(`{"step":3,"step_cost":`), data...)
		viaBinary[FeedbackRequest](t, append(feedback, '}'))
	})
}

// FuzzAppendFloat: the client's binary encoder writes any float64 as its
// bits, as a utilization and as every cost, and the service's decoder reads
// the same bits back; NaN and ±Inf the encoder refuses with encoding/json's
// own error, as json.Marshal refuses them in the full form. Its seeds run as
// regression cases, as FuzzElidedNumber's do.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), -0.3, 1.0 / 3, 1125899906842624.25,
		math.Nextafter(1<<56, 0), 1 << 56, 1e21, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		req := testWorld(3, 2, false)
		req.VMs[1].Utilization = x
		fb := FeedbackRequest{Step: 1, StepCost: x, EnergyCost: x, SLACost: x, ResourceCost: x}
		state, stateErr := appendBinaryState(nil, &req, "d", 0)
		feedback, feedbackErr := appendBinaryFeedback(nil, &fb)
		_, jsonErr := json.Marshal(x)
		if fmt.Sprint(stateErr) != fmt.Sprint(jsonErr) || fmt.Sprint(feedbackErr) != fmt.Sprint(jsonErr) {
			t.Fatalf("%g: encoder errors %v and %v, encoding/json's %v", x, stateErr, feedbackErr, jsonErr)
		}
		if jsonErr != nil {
			return
		}
		var gotState StateRequest
		var gotFeedback FeedbackRequest
		_, stateErr = decodeWire(elidedMediaType, state, &gotState, new(requestScratch))
		_, feedbackErr = decodeWire(elidedMediaType, feedback, &gotFeedback, nil)
		if stateErr != nil || feedbackErr != nil ||
			math.Float64bits(gotState.VMs[1].Utilization) != bits || !same(&gotFeedback, &fb) {
			t.Fatalf("%g (bits %#x): decoded %v (%v) and %+v (%v)", x, bits,
				gotState.VMs[1].Utilization, stateErr, gotFeedback, feedbackErr)
		}
	})
}
