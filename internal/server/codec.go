package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"megh/internal/sim"
)

// This file holds the binary codec for the three requests a monitoring loop
// repeats every interval — an elided decide, a decide/batch whose items are
// all elided, and a feedback post — and for the answers to the first two.
// SessionClient sends the requests under elidedMediaType and asks for the
// answers with Accept: elidedMediaType; every other body, and these under
// any other Content-Type, is JSON for encoding/json, as is every other
// answer. All integers are varints as encoding/binary writes them, signed
// ones zig-zag, and every float64 travels as its IEEE-754 bits,
// little-endian, so a value arrives with the bits it left with and nothing
// converts it to text and back:
//
//	state:    varint step | uvarint len, base digest bytes |
//	          uvarint count, uvarint failed host index… |
//	          uvarint count, (varint host, 8-byte utilization)…
//	batch:    uvarint count, (flag byte 0|1, [feedback], state)…
//	feedback: varint step | 8-byte step, energy, SLA and resource costs
//	decide answer: varint step | uvarint count, (uvarint vm, uvarint dest)…
//	batch answer:  uvarint count, decide answer…
//
// The decoder takes exactly these bytes and refuses — with a 400 on the
// service, an error on the client — trailing bytes, a varint in more bytes
// than it needs (one value, one encoding), a count the bytes left cannot
// hold — checked before anything is carved from the scratch — and NaN or
// ±Inf, which JSON cannot spell. What it accepts is the value encoding/json
// would decode from the same body in JSON, and a request goes through the
// same checks after.

// elidedMediaType is the Content-Type of a binary body.
const elidedMediaType = "application/x-megh-elided"

// decodeWire decodes one body into v, which must be zero. A snapshot, a
// batch of them or a feedback post under elidedMediaType is read by
// binaryDecoder, its VM entries, items and feedback carved from sc — nil
// will do for a feedback post — so v is good until sc is recycled, and so is
// a decide or decide/batch answer, which carves nothing; isBinary reports
// it. Anything else goes to encoding/json and owns its memory.
func decodeWire(contentType string, buf []byte, v any, sc *requestScratch) (isBinary bool, err error) {
	if contentType == elidedMediaType {
		d := binaryDecoder{b: buf}
		switch v := v.(type) {
		case *StateRequest:
			d.state(v, sc)
		case *BatchDecideRequest:
			d.batch(v, sc)
		case *FeedbackRequest:
			d.feedback(v)
		case *DecideResponse:
			d.decision(v)
		case *BatchDecideResponse:
			v.Results = make([]DecideResponse, d.count(minAnswerBytes, "results"))
			for i := range v.Results {
				d.decision(&v.Results[i])
			}
		default:
			return false, json.NewDecoder(bytes.NewReader(buf)).Decode(v)
		}
		if d.err == nil && len(d.b) != 0 {
			d.fail("%d trailing bytes", len(d.b))
		}
		return true, d.err
	}
	return false, json.NewDecoder(bytes.NewReader(buf)).Decode(v)
}

// requestScratch is the storage one decide or decide/batch request needs only
// until its handler returns: the body bytes, the decoded VM entries, a
// batch's items and their feedback. A session keeps one between requests
// (session.scratch), left there by the last request whose binary body
// decoded — and only by those: the full form is sent once per session and
// runs to hundreds of KB, which the session would otherwise hold on to for
// life.
type requestScratch struct {
	body      []byte
	vms       []VMState
	items     []BatchDecideItem
	feedbacks []FeedbackRequest
	base      string // the last base decoded, shared while the bytes repeat
}

// carve takes n entries off the spare capacity of *s for one request; what
// they held is the caller's to overwrite. When they do not fit, a new backing
// array replaces the old one, which the requests already decoded keep; *s
// ends up holding the largest, so a stream of like requests stops allocating
// after its first few.
func carve[T any](s *[]T, n int) []T {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(n, 2*cap(*s)))
	}
	*s = (*s)[:len(*s)+n]
	return (*s)[len(*s)-n : len(*s) : len(*s)]
}

// Smallest encodings, which bound what a count may claim: a VM is a one-byte
// host and its utilization's bits; a batch item a flag byte and a state of
// one-byte step, base length and counts; an answer's decision and migration
// two one-byte varints each.
const (
	minVMBytes     = 1 + 8
	minItemBytes   = 1 + 4
	minAnswerBytes = 2
)

// binaryDecoder reads a binary body front to back. The first fault is kept in
// err and empties b, so what follows reads zeros and the caller checks once.
// The scratch is the methods' argument, not a field: escape analysis would
// take a returned err for the scratch itself, and put every scratch a
// request takes on the heap.
type binaryDecoder struct {
	b   []byte
	err error
}

func (d *binaryDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("binary body: "+format, args...)
	}
	d.b = nil
}

// skip consumes the n bytes a varint took, as binary.Uvarint or
// binary.Varint reported them: n ≤ 0 is a varint cut short or past 64 bits,
// and a last byte of zero one that a shorter encoding would have spelled.
func (d *binaryDecoder) skip(n int) {
	switch {
	case n <= 0:
		d.fail("truncated or overflowing varint")
	case n > 1 && d.b[n-1] == 0:
		d.fail("varint in %d bytes is not minimal", n)
	default:
		d.b = d.b[n:]
	}
}

func (d *binaryDecoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	d.skip(n)
	return x
}

func (d *binaryDecoder) varint() int {
	x, n := binary.Varint(d.b)
	d.skip(n)
	return int(x)
}

// count reads a count of entries of at least size bytes each, refusing one
// the bytes left cannot hold.
func (d *binaryDecoder) count(size int, what string) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("%d %s do not fit in the %d bytes left", n, what, len(d.b))
		return 0
	}
	return int(n)
}

// float reads 8 bytes of IEEE-754 bits, refusing NaN and ±Inf.
func (d *binaryDecoder) float(what string) float64 {
	if len(d.b) < 8 {
		d.fail("truncated %s", what)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		d.fail("%s is %g", what, f)
		return 0
	}
	d.b = d.b[8:]
	return f
}

// state reads one elided snapshot into r, carving from sc.
func (d *binaryDecoder) state(r *StateRequest, sc *requestScratch) {
	step := d.varint()
	// The digest: printable ASCII, as every digest is hex, so that JSON
	// carries it unchanged.
	base := d.b[:d.count(1, "base bytes")]
	for _, c := range base {
		if c < ' ' || c > '~' {
			d.fail("base %q is not printable ASCII", string(base))
			return
		}
	}
	d.b = d.b[len(base):]
	if string(base) != sc.base {
		sc.base = string(base)
	}
	var failed []int
	if n := d.count(1, "failed hosts"); n > 0 {
		failed = make([]int, n)
		for k := range failed {
			failed[k] = int(d.uvarint())
		}
	}
	vms := carve(&sc.vms, d.count(minVMBytes, "VMs"))
	for j := range vms {
		vms[j] = VMState{Host: d.varint(), Utilization: d.float("utilization")}
	}
	*r = StateRequest{Step: step, Base: sc.base, FailedHosts: failed, VMs: vms}
}

// feedback reads one FeedbackRequest into fb.
func (d *binaryDecoder) feedback(fb *FeedbackRequest) {
	*fb = FeedbackRequest{
		Step:         d.varint(),
		StepCost:     d.float("step cost"),
		EnergyCost:   d.float("energy cost"),
		SLACost:      d.float("SLA cost"),
		ResourceCost: d.float("resource cost"),
	}
}

// batch reads a decide/batch body into r, carving from sc. Past
// MaxBatchItems it stops at the count, before an item is read.
func (d *binaryDecoder) batch(r *BatchDecideRequest, sc *requestScratch) {
	n := d.count(minItemBytes, "items")
	if n > MaxBatchItems {
		d.fail("batch has %d items, limit %d", n, MaxBatchItems)
		return
	}
	items := sc.items[:0]
	for k := 0; k < n; k++ {
		var it BatchDecideItem
		switch flag := d.uvarint(); flag {
		case 0:
		case 1:
			it.Feedback = &carve(&sc.feedbacks, 1)[0]
			d.feedback(it.Feedback)
		default:
			d.fail("item %d: feedback flag %d", k, flag)
		}
		d.state(&it.State, sc)
		items = append(items, it)
	}
	sc.items = items
	r.Items = items
}

// decision reads one decide answer into r. Its Migrations is not nil, as
// encoding/json leaves it for the JSON answer's [].
func (d *binaryDecoder) decision(r *DecideResponse) {
	r.Step = d.varint()
	r.Migrations = make([]MigrationDecision, d.count(minAnswerBytes, "migrations"))
	for k := range r.Migrations {
		r.Migrations[k] = MigrationDecision{VM: int(d.uvarint()), Dest: int(d.uvarint())}
	}
}

// --- encoder ------------------------------------------------------------

// appendBits appends f's IEEE-754 bits. NaN and ±Inf, which the service
// refuses, are encoding/json's error, as in the full form.
func appendBits(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f) // a *json.UnsupportedValueError
		return b, err
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f)), nil
}

// elidedSizeHint is the buffer to reserve for r's binary form: a VM is a host
// index of up to 3 bytes (a million hosts) and 8 bytes of utilization. A miss
// costs one regrowth.
func elidedSizeHint(r *StateRequest) int {
	return 64 + 11*len(r.VMs)
}

// appendBinaryState appends full snapshot r's elided form: r's step, digest
// as its base, the indices of r's failed hosts, and r's VMs stripped to host
// and utilization. digest and failed are what staticDigest returns for r, so
// the hosts are read again only when some host failed.
func appendBinaryState(b []byte, r *StateRequest, digest string, failed int) ([]byte, error) {
	b = binary.AppendVarint(b, int64(r.Step))
	b = binary.AppendUvarint(b, uint64(len(digest)))
	b = append(b, digest...)
	b = binary.AppendUvarint(b, uint64(failed))
	for i := 0; failed > 0; i++ {
		if r.Hosts[i].Failed {
			b = binary.AppendUvarint(b, uint64(i))
			failed--
		}
	}
	b = binary.AppendUvarint(b, uint64(len(r.VMs)))
	var err error
	for j := range r.VMs {
		b = binary.AppendVarint(b, int64(r.VMs[j].Host))
		if b, err = appendBits(b, r.VMs[j].Utilization); err != nil {
			return b, err
		}
	}
	return b, nil
}

// appendBinaryFeedback appends fb.
func appendBinaryFeedback(b []byte, fb *FeedbackRequest) ([]byte, error) {
	b = binary.AppendVarint(b, int64(fb.Step))
	var err error
	for _, f := range [...]float64{fb.StepCost, fb.EnergyCost, fb.SLACost, fb.ResourceCost} {
		if b, err = appendBits(b, f); err != nil {
			return b, err
		}
	}
	return b, nil
}

// appendBinaryBatch appends a decide/batch body whose every item is a full
// snapshot with the static fields digest names.
func appendBinaryBatch(b []byte, items []BatchDecideItem, digest string) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(items)))
	var err error
	for i := range items {
		it := &items[i]
		if it.Feedback == nil {
			b = append(b, 0)
		} else if b, err = appendBinaryFeedback(append(b, 1), it.Feedback); err != nil {
			return b, err
		}
		failed := 0
		for h := range it.State.Hosts {
			if it.State.Hosts[h].Failed {
				failed++
			}
		}
		if b, err = appendBinaryState(b, &it.State, digest, failed); err != nil {
			return b, err
		}
	}
	return b, nil
}

// writeDecisions answers 200 with outs, the decisions for items, as a
// decide's answer (items holds one) or, batched, a decide/batch's: binary if
// the request accepts elidedMediaType, else JSON through writeJSON.
func writeDecisions(w http.ResponseWriter, r *http.Request, items []decideItem, outs [][]sim.Migration, batched bool) {
	if r.Header.Get("Accept") != elidedMediaType {
		results := make([]DecideResponse, len(outs))
		for i, migs := range outs {
			results[i] = DecideResponse{Step: items[i].state.Step, Migrations: make([]MigrationDecision, len(migs))}
			for j, m := range migs {
				results[i].Migrations[j] = MigrationDecision{VM: m.VM, Dest: m.Dest}
			}
		}
		if batched {
			writeJSON(w, http.StatusOK, BatchDecideResponse{Results: results})
		} else {
			writeJSON(w, http.StatusOK, results[0])
		}
		return
	}
	body := make([]byte, 0, 64*len(outs))
	if batched {
		body = binary.AppendUvarint(body, uint64(len(outs)))
	}
	for i, migs := range outs {
		body = binary.AppendVarint(body, int64(items[i].state.Step))
		body = binary.AppendUvarint(body, uint64(len(migs)))
		for _, m := range migs {
			body = binary.AppendUvarint(binary.AppendUvarint(body, uint64(m.VM)), uint64(m.Dest))
		}
	}
	w.Header().Set("Content-Type", elidedMediaType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
