package telemetry

// Ring is a bounded event ring: one flat []Event, a write cursor, and a
// drop counter. A ring with a large bound starts small and doubles on
// demand up to the bound, so a short run pays only for the events it
// records; a ring with a small bound (a checked run's failure window)
// allocates it up front, because doubling toward it would allocate
// about twice the bound. Once the array reaches the bound it stops
// growing and the ring wraps. Recording into a full ring is a struct
// copy plus two integer updates — no allocation, no pointer writes — so
// the enabled path stays cheap enough for multi-million-event runs, and
// the bound means an unattended dump cannot eat the heap. When the ring
// wraps, the oldest events are overwritten and Dropped reports how many
// were lost.
type Ring struct {
	buf     []Event // live events; len grows to limit, cap never exceeds it
	limit   int     // capacity bound
	next    int     // next overwrite index once len(buf) == limit
	dropped uint64  // events overwritten after the ring filled
}

// DefaultRingCap bounds the standard Recorder's event ring: enough for
// every event of a few hundred thousand simulated instructions.
const DefaultRingCap = 1 << 21

// initialRingCap is the backing array a new ring starts with when its
// capacity bound exceeds smallRingCap; a bound up to smallRingCap is
// allocated whole.
const (
	initialRingCap = 1024
	smallRingCap   = 8192
)

// NewRing creates a ring holding up to capacity events (none when
// capacity <= 0: every event is counted as dropped). A capacity up to
// smallRingCap is allocated at once; a larger one starts at
// initialRingCap events and Record grows the array toward capacity as
// events arrive.
func NewRing(capacity int) *Ring {
	capacity = max(capacity, 0)
	initial := capacity
	if capacity > smallRingCap {
		initial = initialRingCap
	}
	return &Ring{buf: make([]Event, 0, initial), limit: capacity}
}

// Record appends one event, overwriting the oldest when full.
func (r *Ring) Record(ev Event) {
	if len(r.buf) < r.limit {
		if len(r.buf) == cap(r.buf) {
			r.grow()
		}
		r.buf = append(r.buf, ev)
		return
	}
	r.dropped++
	if r.limit == 0 {
		return
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == r.limit {
		r.next = 0
	}
}

// grow doubles the backing array, clamped to the capacity bound so the
// ring never holds more memory than a preallocated one would.
func (r *Ring) grow() {
	buf := make([]Event, len(r.buf), min(2*cap(r.buf), r.limit))
	copy(buf, r.buf)
	r.buf = buf
}

// Len returns the number of live events.
func (r *Ring) Len() int { return len(r.buf) }

// Dropped returns how many events were overwritten after the ring
// filled.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Events returns the live events in recording order. The slice is
// freshly assembled; mutating it does not affect the ring.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
