package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"megh/internal/sim"
)

// This file holds the hand-written codec for the one request shape that
// repeats every interval, the canonical elided snapshot
//
//	{"step":N,"base":"<digest>"[,"failed_hosts":[N,…]],"vms":[{"host":N,"utilization":F},…]}
//
// alone (decide) or as the "state" of decide/batch items with their
// optional "feedback". SessionClient writes it with the append encoder
// below, byte for byte what json.Marshal writes for the same value (every
// nonzero utilization by shortestDecimal, decimal.go, not strconv), and the
// service parses it with elidedDecoder instead of encoding/json's reflective
// decoder; a feedback post, the other request of every interval, too.
//
// The decoder is form-selected: it recognises exactly the bytes the encoder
// emits — fixed key order, no whitespace, no escapes, no nulls, nothing after
// the closing brace — and gives up on anything else, whereupon the same
// buffer goes to encoding/json (decodeRequest). Every shape it does accept
// is valid JSON that encoding/json decodes to the same value (numbers to
// strconv.ParseFloat's bits, decimal.go), so the accepted language, the
// decoded values and every error text remain encoding/json's; the full form
// — sent once per session, and by every world too small to elide — never
// leaves it.

// decodeRequest decodes one request body into v, which must be zero.
// fallback reports that the body was not the canonical form of a snapshot,
// a batch of them or a feedback post, so encoding/json decoded it. The
// canonical form's VM entries, items and feedback are carved from sc — nil
// will do for a feedback post — so v is good until sc is recycled; what the
// fallback decodes owns its memory.
func decodeRequest(buf []byte, v any, sc *requestScratch) (fallback bool, err error) {
	d := elidedDecoder{b: buf, sc: sc}
	switch v := v.(type) {
	case *StateRequest:
		if d.state(v) && d.i == len(buf) {
			return false, nil
		}
		*v = StateRequest{}
	case *BatchDecideRequest:
		if d.batch(v) && d.i == len(buf) {
			return false, nil
		}
		*v = BatchDecideRequest{}
	case *FeedbackRequest:
		if d.feedback(v) && d.i == len(buf) {
			return false, nil
		}
		*v = FeedbackRequest{}
	}
	return true, json.NewDecoder(bytes.NewReader(buf)).Decode(v)
}

// requestScratch is the storage one decide or decide/batch request needs only
// until its handler returns: the body bytes, the decoded VM entries, a
// batch's items and their feedback. A session keeps one between requests
// (session.scratch), left there by the last request whose body the canonical
// decoder accepted — and only by those: the full form is sent once per
// session and runs to hundreds of KB, which the session would otherwise hold
// on to for life.
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

// elidedDecoder walks a body in the canonical elided form. Every method
// reports whether the bytes at i were what it expected and, if so, leaves i
// past them; after a false the decoder is abandoned.
type elidedDecoder struct {
	b  []byte
	i  int
	sc *requestScratch
}

// lit consumes the literal s.
func (d *elidedDecoder) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// isDigit reports whether c is an ASCII digit.
func isDigit(c byte) bool { return c-'0' <= 9 }

// integer consumes a JSON integer of at most 18 digits, which fits an int64
// whatever its digits; the byte after it is the caller's to check, so 1.0
// and 1e2 fail there.
func (d *elidedDecoder) integer() (int, bool) {
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for ; i < len(b) && isDigit(b[i]); i++ {
		n = n*10 + int64(b[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > 18 || digits > 1 && b[start] == '0' {
		return 0, false
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return 0, false
	}
	d.i = i
	return int(n), true
}

// maxNumberBytes is the longest number literal the decoder converts: the
// conversion to string for strconv stays on the stack up to 32 bytes, and
// encoding/json never writes a float64 longer than 25
// (-0.0000012345678901234567).
const maxNumberBytes = 32

// number consumes a JSON number and converts it as encoding/json does for a
// float64 field, to strconv.ParseFloat's bits: scanNumber checks the grammar
// (strconv alone also takes "1.", ".5", "0x1p-2", "1_0" and "inf") and
// decimalToFloat converts a plain decimal; anything else goes to strconv on
// the same bytes, whose refusal (1e999) is left to the fallback to report.
func (d *elidedDecoder) number() (float64, bool) {
	n, man, exp10, neg, plain := scanNumber(d.b[d.i:])
	if n == 0 || n > maxNumberBytes {
		return 0, false
	}
	f, ok := 0.0, false
	if plain {
		f, ok = decimalToFloat(man, exp10, neg)
	}
	if !ok {
		var err error
		if f, err = strconv.ParseFloat(string(d.b[d.i:d.i+n]), 64); err != nil {
			return 0, false
		}
	}
	d.i += n
	return f, true
}

// minVMBytes is the shortest canonical VM entry: {"host":0,"utilization":0}.
const minVMBytes = 26

// state consumes one canonical elided snapshot into r.
func (d *elidedDecoder) state(r *StateRequest) bool {
	if !d.lit(`{"step":`) {
		return false
	}
	step, ok := d.integer()
	if !ok || !d.lit(`,"base":"`) {
		return false
	}
	// The digest: printable ASCII with nothing to unescape, and not empty —
	// an empty base is the full form's spelling.
	start := d.i
	for d.i < len(d.b) {
		if c := d.b[d.i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			break
		}
		d.i++
	}
	end := d.i
	if end == start || !d.lit(`"`) {
		return false
	}
	if string(d.b[start:end]) != d.sc.base {
		d.sc.base = string(d.b[start:end])
	}
	var failed []int
	if d.lit(`,"failed_hosts":[`) {
		for {
			i, ok := d.integer()
			if !ok {
				return false
			}
			failed = append(failed, i)
			if d.lit(`]`) {
				break
			}
			if !d.lit(`,`) {
				return false
			}
		}
	}
	if !d.lit(`,"vms":[`) {
		return false
	}
	// One '{' per VM up to the array's ']' sizes the slice exactly; the bound
	// keeps a body of bare braces from reserving 40 bytes for each of them.
	span := bytes.IndexByte(d.b[d.i:], ']')
	if span < 0 {
		return false
	}
	n := bytes.Count(d.b[d.i:d.i+span], []byte{'{'})
	if n == 0 || n*minVMBytes > span {
		return false
	}
	vms := carve(&d.sc.vms, n)
	for j := range vms {
		if j > 0 && !d.lit(`,`) {
			return false
		}
		if !d.lit(`{"host":`) {
			return false
		}
		host, ok := d.integer()
		if !ok || !d.lit(`,"utilization":`) {
			return false
		}
		util, ok := d.number()
		if !ok || !d.lit(`}`) {
			return false
		}
		vms[j] = VMState{Host: host, Utilization: util}
	}
	if !d.lit(`]}`) {
		return false
	}
	*r = StateRequest{Step: step, Base: d.sc.base, FailedHosts: failed, VMs: vms}
	return true
}

// feedback consumes one FeedbackRequest as encoding/json writes it: step and
// step_cost, then whichever of the optional costs are present, in order.
func (d *elidedDecoder) feedback(fb *FeedbackRequest) bool {
	if !d.lit(`{"step":`) {
		return false
	}
	step, ok := d.integer()
	if !ok || !d.lit(`,"step_cost":`) {
		return false
	}
	fb.Step = step
	if fb.StepCost, ok = d.number(); !ok {
		return false
	}
	for _, opt := range [...]struct {
		prefix string
		into   *float64
	}{
		{`,"energy_cost":`, &fb.EnergyCost},
		{`,"sla_cost":`, &fb.SLACost},
		{`,"resource_cost":`, &fb.ResourceCost},
	} {
		if d.lit(opt.prefix) {
			if *opt.into, ok = d.number(); !ok {
				return false
			}
		}
	}
	return d.lit(`}`)
}

// batch consumes a decide/batch body whose every item is canonical and
// elided. One full item — the first batch of a session leads with one —
// sends the whole body to the fallback.
func (d *elidedDecoder) batch(r *BatchDecideRequest) bool {
	if !d.lit(`{"items":[`) {
		return false
	}
	items := d.sc.items[:0]
	for {
		var it BatchDecideItem
		if !d.lit(`{`) {
			return false
		}
		if d.lit(`"feedback":`) {
			it.Feedback = &carve(&d.sc.feedbacks, 1)[0]
			*it.Feedback = FeedbackRequest{}
			if !d.feedback(it.Feedback) || !d.lit(`,`) {
				return false
			}
		}
		if !d.lit(`"state":`) || !d.state(&it.State) || !d.lit(`}`) {
			return false
		}
		items = append(items, it)
		if !d.lit(`,`) {
			break
		}
	}
	d.sc.items = items
	if !d.lit(`]}`) {
		return false
	}
	r.Items = items
	return true
}

// --- encoder ------------------------------------------------------------

// appendFloat appends f as encoding/json writes a float64: ES6 number
// formatting — exponent form below 1e-6 and from 1e21, with e-09 cleaned up
// to e-9 — and for NaN and ±Inf encoding/json's own error. ±[1e-6, 2^56),
// which holds every nonzero utilization, takes shortestDecimal; the rest strconv.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if digits, exp10, ok := shortestDecimal(f); ok && math.Abs(f) >= 1e-6 {
		return appendDecimal(b, f < 0, digits, exp10), nil
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f) // a *json.UnsupportedValueError
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// elidedSizeHint is the buffer to reserve for r's elided form: a VM entry is
// 24 bytes of keys and punctuation plus a host index and a float64 of up to
// 17 significant digits. A miss costs one regrowth.
func elidedSizeHint(r *StateRequest) int {
	return 128 + 56*len(r.VMs)
}

// appendElidedState appends full snapshot r in the elided form — what
// json.Marshal writes for a StateRequest carrying r's step, the digest as
// base, the indices of r's failed hosts, and r's VMs stripped to host and
// utilization. digest is staticDigest of r's static fields: hex, so it needs
// no escaping.
func appendElidedState(b []byte, r *StateRequest, digest string) ([]byte, error) {
	b = append(b, `{"step":`...)
	b = strconv.AppendInt(b, int64(r.Step), 10)
	b = append(b, `,"base":"`...)
	b = append(b, digest...)
	b = append(b, '"')
	sep := `,"failed_hosts":[`
	for i := range r.Hosts {
		if r.Hosts[i].Failed {
			b = append(b, sep...)
			b = strconv.AppendInt(b, int64(i), 10)
			sep = ","
		}
	}
	if sep == "," {
		b = append(b, ']')
	}
	b = append(b, `,"vms":[`...)
	var err error
	for j := range r.VMs {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"host":`...)
		b = strconv.AppendInt(b, int64(r.VMs[j].Host), 10)
		b = append(b, `,"utilization":`...)
		if b, err = appendFloat(b, r.VMs[j].Utilization); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return append(b, `]}`...), nil
}

// appendFeedback appends fb as json.Marshal writes it; the optional costs
// are omitempty, which for a float means == 0 (so −0 is left out too).
func appendFeedback(b []byte, fb *FeedbackRequest) ([]byte, error) {
	b = append(b, `{"step":`...)
	b = strconv.AppendInt(b, int64(fb.Step), 10)
	b = append(b, `,"step_cost":`...)
	b, err := appendFloat(b, fb.StepCost)
	for _, opt := range [...]struct {
		key string
		f   float64
	}{
		{`,"energy_cost":`, fb.EnergyCost},
		{`,"sla_cost":`, fb.SLACost},
		{`,"resource_cost":`, fb.ResourceCost},
	} {
		if err == nil && opt.f != 0 {
			b, err = appendFloat(append(b, opt.key...), opt.f)
		}
	}
	return append(b, '}'), err
}

// appendBatchItem appends one decide/batch item as json.Marshal writes it,
// its state elided against digest if elide is set — else in full, by
// json.Marshal itself: full items are the few that establish a base.
func appendBatchItem(b []byte, it *BatchDecideItem, digest string, elide bool) ([]byte, error) {
	b = append(b, '{')
	var err error
	if it.Feedback != nil {
		if b, err = appendFeedback(append(b, `"feedback":`...), it.Feedback); err != nil {
			return b, err
		}
		b = append(b, ',')
	}
	b = append(b, `"state":`...)
	if elide {
		b, err = appendElidedState(b, &it.State, digest)
	} else {
		var full []byte
		full, err = json.Marshal(&it.State)
		b = append(b, full...)
	}
	return append(b, '}'), err
}

// appendDecideResponse appends the decide response for one step as
// json.Marshal writes a DecideResponse whose Migrations is not nil.
func appendDecideResponse(b []byte, step int, migs []sim.Migration) []byte {
	b = append(b, `{"step":`...)
	b = strconv.AppendInt(b, int64(step), 10)
	b = append(b, `,"migrations":[`...)
	for i, m := range migs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"vm":`...)
		b = strconv.AppendInt(b, int64(m.VM), 10)
		b = append(b, `,"dest":`...)
		b = strconv.AppendInt(b, int64(m.Dest), 10)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}
