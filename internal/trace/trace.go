// Package trace is the reproduction's decision-tracing layer: a
// zero-dependency structured event log that records one event per
// simulator step and per Megh decision, so the question "why did Megh
// migrate this VM at this step?" has a replayable, diffable answer —
// the per-decision interpretability that aggregate metrics (internal/obs)
// cannot give.
//
// A Tracer fans each Event out to two sinks: an optional JSONL stream
// (buffered writer over a file or any io.Writer) and an optional bounded
// in-memory ring of event values, encoded only when read (meghd serves it
// at GET /v2/sessions/{id}/trace/tail). Events are encoded with a hand-rolled
// append-based JSON encoder so that (a) the enabled hot path stays cheap and
// (b) the byte output is a pure function of the event values — two runs
// with the same seed produce byte-identical traces, which is what makes
// `meghtrace diff` meaningful.
//
// Wall-clock span timings are opt-in (Options.Timings) precisely because
// they would break that byte-determinism; everything else in an event is
// derived from seeded computation.
//
// All methods on *Tracer are nil-safe: a nil Tracer is "tracing
// disabled" and every call is a cheap no-op, so call sites guard with a
// single pointer test and allocate nothing when disabled.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
)

// Event kinds.
const (
	// KindDecide is emitted by a policy (Megh) once per Decide call.
	KindDecide = "decide"
	// KindStep is emitted by the simulator (or meghd's feedback path)
	// once per completed τ-interval.
	KindStep = "step"
	// KindBatch is emitted by the server's batched decide path once per
	// POST /v2/sessions/{id}/decide/batch request, after the per-item
	// decide events. It records how many observe→decide items the request
	// carried, so analysis can amortize the request's wall time per item.
	KindBatch = "batch"
)

// Candidate reasons — why a VM entered the decision set.
const (
	ReasonOverload    = "overload"
	ReasonUnderload   = "underload"
	ReasonExploration = "exploration"
)

// Rejection reasons — why the simulator refused a requested migration.
const (
	RejectOutOfRange = "out-of-range"
	RejectDuplicate  = "duplicate"
	RejectInfeasible = "infeasible"
	RejectDeadVM     = "dead-vm"
)

// Span is one timed phase of the decide path (feature projection, Q
// lookup/sampling, Sherman–Morrison update). Present only when the
// tracer was built with Options.Timings.
type Span struct {
	Name  string `json:"name"`
	Nanos int64  `json:"ns"`
}

// Candidate records one VM the policy considered this step: why it was
// considered, where it was, where it was sent, and the Q-value context
// at choice time (cost-to-go estimates; lower is better).
type Candidate struct {
	VM int `json:"vm"`
	// Reason is one of ReasonOverload, ReasonUnderload, ReasonExploration.
	Reason string `json:"reason"`
	// From is the VM's host at decision time; Dest the sampled
	// destination (Dest == From means the stay action was chosen).
	From int `json:"from"`
	Dest int `json:"dest"`
	// Feasible is how many destinations (including stay) were feasible.
	Feasible int `json:"feasible"`
	// QChosen, QBest and QStay are θᵀφ for the chosen action, the
	// minimum over feasible actions, and the stay action.
	QChosen float64 `json:"q_chosen"`
	QBest   float64 `json:"q_best"`
	QStay   float64 `json:"q_stay"`
}

// Migration is one executed or rejected live-migration in a step event.
type Migration struct {
	VM   int `json:"vm"`
	From int `json:"from"`
	Dest int `json:"dest"`
	// Reason is set on rejected migrations (RejectOutOfRange, …).
	Reason string `json:"reason,omitempty"`
	// Seconds is the live-migration copy time for executed migrations.
	Seconds float64 `json:"seconds,omitempty"`
}

// Event is one trace record. Kind selects which field groups are
// populated: decide events carry the policy's view of the choice, step
// events carry the environment's account of what happened.
type Event struct {
	Kind string `json:"kind"`
	Step int    `json:"step"`

	// Digest fingerprints the placement + failure state (Digest64),
	// rendered as fixed-width hex so 64-bit values survive JSON.
	Digest string `json:"digest,omitempty"`

	// Decide fields.
	Policy      string      `json:"policy,omitempty"`
	Temperature float64     `json:"temp,omitempty"`
	QTableNNZ   int         `json:"qtable_nnz,omitempty"`
	Candidates  []Candidate `json:"candidates,omitempty"`
	Spans       []Span      `json:"spans,omitempty"`

	// Step fields.
	Executed []Migration `json:"executed,omitempty"`
	Rejected []Migration `json:"rejected,omitempty"`

	EnergyCost   float64 `json:"energy_cost,omitempty"`
	SLACost      float64 `json:"sla_cost,omitempty"`
	ResourceCost float64 `json:"resource_cost,omitempty"`
	StepCost     float64 `json:"step_cost,omitempty"`

	ActiveHosts     int `json:"active_hosts,omitempty"`
	OverloadedHosts int `json:"overloaded_hosts,omitempty"`
	FailedHosts     int `json:"failed_hosts,omitempty"`

	// Woken and Slept list hosts whose activity changed this step
	// (empty→running and running→empty respectively).
	Woken []int `json:"woken,omitempty"`
	Slept []int `json:"slept,omitempty"`

	// Arrived and Departed list VM slots whose lifecycle changed this
	// step, and LiveVMs the population after those changes. Only runs
	// with lifecycle events populate them, so fixed-population traces
	// stay byte-identical to the pre-lifecycle format.
	Arrived  []int `json:"arrived,omitempty"`
	Departed []int `json:"departed,omitempty"`
	LiveVMs  int   `json:"live_vms,omitempty"`

	// BatchItems is how many observe→decide items a batch event's request
	// carried (KindBatch only). With timings enabled DecideNanos holds the
	// whole request's decide wall time; per-item latency is the quotient.
	BatchItems int `json:"batch_items,omitempty"`

	// DecideNanos is the policy's wall time for this step; like Spans it
	// is only recorded when timings are enabled.
	DecideNanos int64 `json:"decide_ns,omitempty"`
}

// Options configures a Tracer.
type Options struct {
	// Path, when non-empty, appends events as JSON lines to this file
	// ("-" means stdout). The file is truncated on open.
	Path string
	// W, when non-nil, receives the JSONL stream instead of Path
	// (useful for tests and in-memory capture).
	W io.Writer
	// RingSize bounds the in-memory tail ring: 0 means DefaultRingSize,
	// negative disables the ring entirely.
	RingSize int
	// Timings enables wall-clock span recording. Off by default so that
	// same-seed runs produce byte-identical traces.
	Timings bool
}

// DefaultRingSize is the tail ring capacity when Options.RingSize is 0.
const DefaultRingSize = 256

// Tracer writes events to the configured sinks. Safe for concurrent use
// (one mutex serialises Emit; the decide path is single-goroutine in the
// simulator and lock-uncontended in meghd).
type Tracer struct {
	timings bool
	ring    *ring // fixed by New; what it holds is guarded by mu

	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	buf    []byte
	events uint64
}

// New builds a Tracer. With neither Path, W, nor a ring it still works
// (events are counted) but retains nothing; pass a nil *Tracer instead to
// disable tracing outright.
func New(o Options) (*Tracer, error) {
	t := &Tracer{timings: o.Timings}
	switch {
	case o.W != nil:
		t.w = bufio.NewWriterSize(o.W, 1<<16)
	case o.Path == "-":
		t.w = bufio.NewWriterSize(os.Stdout, 1<<16)
	case o.Path != "":
		f, err := os.Create(o.Path)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		t.w = bufio.NewWriterSize(f, 1<<16)
		t.closer = f
	}
	size := o.RingSize
	if size == 0 {
		size = DefaultRingSize
	}
	if size > 0 {
		t.ring = newRing(size)
	}
	return t, nil
}

// Enabled reports whether the tracer records anything; it is the
// nil-safe guard call sites use before building an Event.
func (t *Tracer) Enabled() bool { return t != nil }

// Timings reports whether wall-clock spans should be recorded.
func (t *Tracer) Timings() bool { return t != nil && t.timings }

// Emit encodes the event to the stream and copies it into the ring. The
// event may be reused by the caller as soon as Emit returns.
func (t *Tracer) Emit(ev *Event) {
	if t == nil || ev == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events++
	if t.w != nil {
		t.buf = append(appendEventJSON(t.buf[:0], ev), '\n')
		_, _ = t.w.Write(t.buf)
	}
	if t.ring != nil {
		t.ring.push(ev)
	}
}

// Events returns how many events have been emitted.
func (t *Tracer) Events() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// AppendTail appends up to n of the most recent events (n ≤ 0: all), oldest
// first, to b as comma-separated JSON objects: the stream's bytes, ready to
// sit in a JSON array. It encodes them after releasing the lock, so a tail
// read never stalls an Emit. A nil tracer or disabled ring appends nothing.
func (t *Tracer) AppendTail(b []byte, n int) []byte {
	if t == nil || t.ring == nil {
		return b
	}
	t.mu.Lock()
	evs := t.ring.tail(n)
	t.mu.Unlock()
	for i := range evs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEventJSON(b, &evs[i])
	}
	return b
}

// Flush forces buffered bytes to the underlying writer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w == nil {
		return nil
	}
	return t.w.Flush()
}

// Close flushes and closes the underlying file, if any.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	err := t.Flush()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closer != nil {
		if cerr := t.closer.Close(); err == nil {
			err = cerr
		}
		t.closer = nil
	}
	return err
}

// Digest64 fingerprints a placement + failure state with FNV-1a over the
// VM→host assignment and the failed-host set. It allocates nothing, so
// the decide path can call it per step.
func Digest64(step int, vmHost []int, hostFailed []bool) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(step))
	for _, v := range vmHost {
		mix(uint64(v))
	}
	for i, f := range hostFailed {
		if f {
			mix(uint64(i) | 1<<63)
		}
	}
	return h
}

// DigestString renders a Digest64 value in the fixed-width hex form the
// Event.Digest field carries. Hand-rolled (not fmt.Sprintf) to keep the
// enabled decide path at one allocation for the string itself.
func DigestString(d uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[d&0xf]
		d >>= 4
	}
	return string(b[:])
}
