package scenario

import (
	"fmt"
	"testing"
)

// checkBooks is set in test binaries: every Run then audits the packet
// books of the world it ran on before putting the world back. Outside
// go test the audit costs Run one branch.
var checkBooks = testing.Testing()

// ledger is what a world's audits carry from run to run.
type ledger struct {
	// made counts the packets the world's pool has made.
	made int64
	// in and out are the per-link, per-flow packet tallies, installed
	// after the world's first run and zeroed by every Rebuild.
	in, out [][]int64
}

// audit checks the books of the run w just finished and panics where
// they do not balance:
//   - per link, packets in == out + dropped + in flight;
//   - per flow (from the world's second run on, once the tallies are
//     installed), packets sent == arrived + stranded, where stranded
//     counts the flow's packets that entered a link and did not leave
//     it — dropped there or still inside;
//   - every packet the world's pool has made is on its free list or
//     held by the network. This is where a packet lost at a run
//     boundary (a delay lane or a queue that discards instead of
//     returning what it held) shows up, one run later.
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
	if b != nil {
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
	} else {
		b = &ledger{in: make([][]int64, len(nw.Links)), out: make([][]int64, len(nw.Links))}
		for li, l := range nw.Links {
			b.in[li] = make([]int64, len(nw.Flows))
			b.out[li] = make([]int64, len(nw.Flows))
			l.SetFlowTally(b.in[li], b.out[li])
		}
		w.books = b
	}
	b.made += nw.Pool.Gets - nw.Pool.Reuses
	if free, held := int64(nw.Pool.Free()), int64(nw.Packets()); free+held != b.made {
		panic(fmt.Sprintf("scenario: books: the pool made %d packets, %d are free and the network holds %d",
			b.made, free, held))
	}
}
