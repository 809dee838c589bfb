package netsim

// SACK scoreboard storage. The sender tracks three per-sequence facts
// about every packet between the cumulative ACK point and the highest
// sequence sent: has it been selectively acknowledged, has it been
// declared lost, and has it been retransmitted since. The seed kept one
// map[int64]bool per fact; profiles showed those maps were most of the
// remaining allocations per scenario run after the event core went
// allocation-free. The default implementation here packs the three
// facts into one flag byte per sequence held in a ring buffer indexed
// by seq modulo capacity, giving O(1) mark/test with zero steady-state
// allocation. It is the only scoreboard that ships; the seed's map
// implementation lives in scoreboard_test.go as the oracle, swapped in
// through Sender's unexported sb field by the in-package differential
// tests. The receiver's reorder buffer is the same ring: an arrival
// above its cumulative point sets sbSacked, and a sequence is present
// when any flag is set (ooo_test.go holds that use to the map oracle).

// Scoreboard flag bits, one per RFC 6675 per-packet fact.
const (
	// sbSacked marks a sequence delivered above the cumulative point.
	sbSacked uint8 = 1 << iota
	// sbLost marks a sequence declared lost (DupThresh later
	// deliveries, or an RTO).
	sbLost
	// sbRetx marks a lost sequence that has been retransmitted.
	sbRetx
)

// sbExcluded reports whether an entry with the given flags is excluded
// from the pipe estimate: delivered (sacked), or lost and not yet put
// back in flight by a retransmission.
func sbExcluded(fl uint8) bool {
	return fl&sbSacked != 0 || fl&(sbLost|sbRetx) == sbLost
}

// scoreboard stores SACK flags for the sequences in [una, nextSeq),
// where una is the cumulative ACK point established by advance/reset.
// Sequences below una are settled: get reports zero for them and or
// ignores them. The interface is the test seam: the differential
// tests drive ringScoreboard and their map-based oracle through random
// traces and require bit-equal observations.
type scoreboard interface {
	// get returns the flag byte for seq (zero if never marked or
	// already settled).
	get(seq int64) uint8
	// or sets the given flag bits on seq. Marks below the cumulative
	// point are ignored.
	or(seq int64, bits uint8)
	// advance moves the cumulative point up to newUna, forgetting every
	// entry below it, and returns how many forgotten entries were
	// excluded from the pipe (so the caller's incremental counter stays
	// exact without a second scan).
	advance(newUna int64) int64
	// reset forgets all entries and restarts the scoreboard at una
	// (RTO recovery rebuilds the board from scratch).
	reset(una int64)
	// marked counts entries with any flag set (tests and invariant
	// checks; not on the per-ACK path).
	marked() int
}

// ringScoreboard is the default scoreboard: one flag byte per sequence
// in a power-of-two ring indexed by seq&mask. The window of live
// sequences [base, base+len) slides with the cumulative ACK point, so
// a slot is reused only after its former occupant has been settled and
// zeroed. The ring starts at ringScoreboardMinCap entries and doubles
// whenever a mark lands beyond the current capacity, so it converges on
// the largest congestion window the flow reaches and never allocates
// again.
type ringScoreboard struct {
	flags []uint8
	mask  int64 // len(flags)-1; len is a power of two
	base  int64 // cumulative ACK point; flags cover [base, base+len)
}

// ringScoreboardMinCap is the initial ring capacity in packets. It
// covers a default-sized congestion window without growth; bigger
// windows double their way up once.
const ringScoreboardMinCap = 64

func newRingScoreboard() *ringScoreboard {
	return &ringScoreboard{
		flags: make([]uint8, ringScoreboardMinCap),
		mask:  ringScoreboardMinCap - 1,
	}
}

func (r *ringScoreboard) get(seq int64) uint8 {
	if seq < r.base || seq >= r.base+int64(len(r.flags)) {
		return 0
	}
	return r.flags[seq&r.mask]
}

func (r *ringScoreboard) or(seq int64, bits uint8) {
	if seq < r.base {
		return
	}
	for seq >= r.base+int64(len(r.flags)) {
		r.grow()
	}
	r.flags[seq&r.mask] |= bits
}

// grow doubles the ring, re-seating live entries at their new masked
// positions.
func (r *ringScoreboard) grow() {
	old := r.flags
	oldMask := r.mask
	r.flags = make([]uint8, 2*len(old))
	r.mask = int64(len(r.flags)) - 1
	for seq := r.base; seq < r.base+int64(len(old)); seq++ {
		r.flags[seq&r.mask] = old[seq&oldMask]
	}
}

func (r *ringScoreboard) advance(newUna int64) int64 {
	var reclaimed int64
	// Entries past base+len were never materialized (their flags are
	// zero by construction), so only the stored span needs zeroing.
	end := newUna
	if limit := r.base + int64(len(r.flags)); end > limit {
		end = limit
	}
	for seq := r.base; seq < end; seq++ {
		i := seq & r.mask
		if sbExcluded(r.flags[i]) {
			reclaimed++
		}
		r.flags[i] = 0
	}
	if newUna > r.base {
		r.base = newUna
	}
	return reclaimed
}

func (r *ringScoreboard) reset(una int64) {
	clear(r.flags)
	r.base = una
}

func (r *ringScoreboard) marked() int {
	n := 0
	for _, fl := range r.flags {
		if fl != 0 {
			n++
		}
	}
	return n
}
