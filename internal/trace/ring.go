package trace

// ring is a bounded buffer of the most recent events, kept as values and
// formatted only when read. It grows to size as events arrive, so a session
// that never traces holds no slots. Callers hold the Tracer mutex.
type ring struct {
	events []Event
	size   int
	next   int
}

func newRing(size int) *ring {
	return &ring{size: size}
}

// copyEvent makes *dst a deep copy of *src, reusing dst's slices, so a slot
// stops allocating once it has held an event as large as the one it takes.
func copyEvent(dst, src *Event) {
	old := *dst
	*dst = *src
	dst.Candidates = append(old.Candidates[:0], src.Candidates...)
	dst.Spans = append(old.Spans[:0], src.Spans...)
	dst.Executed = append(old.Executed[:0], src.Executed...)
	dst.Rejected = append(old.Rejected[:0], src.Rejected...)
	dst.Woken = append(old.Woken[:0], src.Woken...)
	dst.Slept = append(old.Slept[:0], src.Slept...)
	dst.Arrived = append(old.Arrived[:0], src.Arrived...)
	dst.Departed = append(old.Departed[:0], src.Departed...)
}

// push stores a copy of ev in the oldest slot.
func (r *ring) push(ev *Event) {
	if len(r.events) < r.size {
		r.events = append(r.events, Event{})
	}
	copyEvent(&r.events[r.next], ev)
	r.next = (r.next + 1) % r.size
}

// tail returns copies of up to n of the most recent events, oldest first
// (n ≤ 0: all of them), safe to read after the lock is released.
func (r *ring) tail(n int) []Event {
	have := len(r.events)
	if n <= 0 || n > have {
		n = have
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, n)
	start := r.next - n + have
	for i := range out {
		copyEvent(&out[i], &r.events[(start+i)%have])
	}
	return out
}
