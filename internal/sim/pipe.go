package sim

import "learnability/internal/units"

// Pipe is a FIFO stage whose values fire in the order they were pushed —
// a schedule known in advance, or, as the body of a Lane, everything one
// constant delay ahead of the clock. It owns one scheduler entry for its
// whole life, queued exactly while values are in flight, and fires each
// value exactly when, and in exactly the order, an At per value would
// have: Push stamps the value with its firing time and the insertion
// number an At at that moment would have drawn, only the oldest value's
// stamp keys the entry, and when it fires the entry is keyed at the next
// value's stamp before the handler runs. That happens while its
// predecessor — a strictly smaller key — is the running event, so
// nothing can fire in between, and the entry fills the root its own
// firing left vacant. Len, HighWater and Processed count a pipe's entry
// as they count an At's.
//
// Values wait in a power-of-two ring that grows to the largest number
// in flight and is then reused, so a busy pipe allocates nothing.
type Pipe[T any] struct {
	s    *Scheduler
	fn   func(T)
	slot int32 // the pipe's owned entry; queued exactly when n > 0
	buf  []pipeEntry[T]
	head int // index of the oldest value
	n    int // values held
}

// pipeEntry is one value in flight with the key of its event.
type pipeEntry[T any] struct {
	at  units.Time
	seq uint64
	v   T
}

// NewPipe returns an empty pipe on s that hands each value to fn when
// its time comes.
func NewPipe[T any](s *Scheduler, fn func(T)) *Pipe[T] {
	if fn == nil {
		panic("sim: pipe with nil handler")
	}
	p := &Pipe[T]{}
	p.init(s, fn)
	return p
}

// init binds a zero pipe to its scheduler and handler, and takes its
// entry.
func (p *Pipe[T]) init(s *Scheduler, fn func(T)) {
	p.s, p.fn = s, fn
	p.slot = s.own(p.fireHead)
}

// Len reports the number of values in flight.
func (p *Pipe[T]) Len() int { return p.n }

// Push sends v down the pipe to fire at time at, which must not precede
// the previous push's time (a constant delay added to a clock that never
// runs backwards satisfies this) nor Now; either panics, as a logic
// error in the component.
func (p *Pipe[T]) Push(at units.Time, v T) {
	if p.n == len(p.buf) {
		p.grow()
	}
	mask := len(p.buf) - 1
	if p.n > 0 && at < p.buf[(p.head+p.n-1)&mask].at {
		panic("sim: pipe push would overtake the value before it")
	}
	e := &p.buf[(p.head+p.n)&mask]
	e.at, e.seq, e.v = at, p.s.reserve(), v
	p.n++
	if p.n == 1 {
		p.arm()
	}
}

// arm keys the pipe's entry at the head's stamp.
func (p *Pipe[T]) arm() {
	h := &p.buf[p.head]
	p.s.put(p.slot, h.at, h.seq)
}

// pop removes the head from the ring.
func (p *Pipe[T]) pop() T {
	e := &p.buf[p.head]
	v := e.v
	var zero T
	e.v = zero // drop the reference for GC
	p.head = (p.head + 1) & (len(p.buf) - 1)
	p.n--
	return v
}

// grow doubles the ring, unwrapping its contents to the front.
func (p *Pipe[T]) grow() {
	buf := make([]pipeEntry[T], max(16, 2*len(p.buf)))
	n := copy(buf, p.buf[p.head:])
	copy(buf[n:], p.buf[:p.head])
	p.buf, p.head = buf, 0
}

// fireHead is the pipe's one scheduler callback: the head's time has
// come. The next value is armed before the handler runs, so the handler
// sees the pipe as it would a plain event queue — it may push onto this
// pipe, drain it, or read Len.
func (p *Pipe[T]) fireHead() {
	v := p.pop()
	if p.n > 0 {
		p.arm()
	}
	p.fn(v)
}

// Sink takes the values a drained pipe still held. It is an interface
// rather than a func so that handing over a free list — *packet.Pool is
// one — builds no closure on a path that runs once per recycled world
// per pipe.
type Sink[T any] interface {
	// Put takes ownership of v.
	Put(v T)
}

// Drain empties the pipe without firing anything: the values in flight
// go to into, oldest first (nil discards them), and the pipe's entry
// leaves the queue. After Scheduler.Reset it has left already. Storage
// is kept.
func (p *Pipe[T]) Drain(into Sink[T]) {
	p.s.take(p.slot)
	for p.n > 0 {
		if v := p.pop(); into != nil {
			into.Put(v)
		}
	}
}
