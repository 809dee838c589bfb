package scenario

import (
	"fmt"
	"testing"
)

// checkBooks is set in test binaries: every Run then audits the packet
// books of the world it ran on before putting the world back. Outside
// go test the audit costs Run two branches.
var checkBooks = testing.Testing()

// ledger is what a world's audits carry from run to run.
type ledger struct {
	// made counts the packets the world's pool has made.
	made int64
	// in and out are the per-link, per-flow packet tallies, installed
	// when the world is built and zeroed by every Rebuild.
	in, out [][]int64
}

// keepBooks opens w's ledger, installing its per-flow tallies in every
// link, so that the world's first run is audited per flow too.
func (w *world) keepBooks() {
	nw := w.Net
	b := &ledger{in: make([][]int64, len(nw.Links)), out: make([][]int64, len(nw.Links))}
	for li, l := range nw.Links {
		b.in[li] = make([]int64, len(nw.Flows))
		b.out[li] = make([]int64, len(nw.Flows))
		l.SetFlowTally(b.in[li], b.out[li])
	}
	w.books = b
}

// audit checks the books of the run w just finished and panics where
// they do not balance:
//   - per link, packets in == out + dropped + held, where held counts
//     the packets queued, serializing or in propagation there;
//   - per flow, packets sent == arrived + stranded, where stranded
//     counts the flow's packets that entered a link and did not leave
//     it — dropped there or still inside;
//   - every packet the world's pool has made is on its free list or a
//     value on one of the network's delay lanes. Queued packets are
//     values in their queues, so a pool packet anywhere else — kept by
//     a queue that does not recycle what it accepts, or lost at a run
//     boundary by a lane or a link that discards instead of returning
//     it — shows up here, at once or one run later.
func (w *world) audit() {
	nw := w.Net
	b := w.books
	for li, l := range nw.Links {
		in, out := l.Counts()
		drops := l.Queue().Stats().Drops()
		if in != out+drops+int64(l.InFlight()) {
			panic(fmt.Sprintf("scenario: books: link %d took %d packets, passed %d, dropped %d and holds %d",
				li, in, out, drops, l.InFlight()))
		}
	}
	for f, fl := range nw.Flows {
		var stranded int64
		for li := range nw.Links {
			stranded += b.in[li][f] - b.out[li][f]
		}
		if st := fl.Stats; st.SentPackets != st.Arrivals+stranded {
			panic(fmt.Sprintf("scenario: books: flow %d sent %d packets, %d arrived and %d are stranded in links",
				f, st.SentPackets, st.Arrivals, stranded))
		}
	}
	b.made += nw.Pool.Gets - nw.Pool.Reuses
	if free, lanes := int64(nw.Pool.Free()), int64(nw.Packets()); free+lanes != b.made {
		panic(fmt.Sprintf("scenario: books: the pool made %d packets, %d are free and %d are on the network's lanes",
			b.made, free, lanes))
	}
}
