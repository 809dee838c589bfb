package netsim

import (
	"math/rand"
	"testing"

	"learnability/internal/cc"
	"learnability/internal/cc/cubic"
	"learnability/internal/packet"
	"learnability/internal/queue"
	"learnability/internal/rng"
	"learnability/internal/units"
	"learnability/internal/workload"
)

// mapScoreboard is the seed's hash-map scoreboard, collapsed to one
// flag map — the behavioral oracle for ringScoreboard. It allocates on
// the ACK path (map growth, bucket churn), which is why it does not
// ship; the tests below install it through Sender's sb field.
type mapScoreboard struct {
	m    map[int64]uint8
	base int64
}

func newMapScoreboard(una int64) *mapScoreboard {
	return &mapScoreboard{m: make(map[int64]uint8), base: una}
}

func (s *mapScoreboard) get(seq int64) uint8 {
	if seq < s.base {
		return 0
	}
	return s.m[seq]
}

func (s *mapScoreboard) or(seq int64, bits uint8) {
	if seq < s.base {
		return
	}
	s.m[seq] |= bits
}

func (s *mapScoreboard) advance(newUna int64) int64 {
	var reclaimed int64
	for seq := s.base; seq < newUna; seq++ {
		fl, ok := s.m[seq]
		if !ok {
			continue
		}
		if sbExcluded(fl) {
			reclaimed++
		}
		delete(s.m, seq)
	}
	if newUna > s.base {
		s.base = newUna
	}
	return reclaimed
}

func (s *mapScoreboard) reset(una int64) {
	clear(s.m)
	s.base = una
}

func (s *mapScoreboard) marked() int { return len(s.m) }

// TestScoreboardDifferentialRandomOps drives the ring and map
// scoreboards through identical randomized op traces — marks of every
// flag combination, partial and overshooting cumulative advances, RTO
// resets — and requires bit-equal observations after every op: get()
// over the whole live window, marked(), and the excluded-reclaim count
// returned by advance().
func TestScoreboardDifferentialRandomOps(t *testing.T) {
	bitsChoices := []uint8{sbSacked, sbLost, sbRetx, sbSacked | sbLost, sbLost | sbRetx}
	for trial := 0; trial < 50; trial++ {
		rnd := rand.New(rand.NewSource(int64(trial)))
		ring := newRingScoreboard()
		ref := newMapScoreboard(0)
		var base, next int64 // live window is [base, next)

		check := func(op string) {
			t.Helper()
			for seq := base - 2; seq < next+2; seq++ {
				if g, w := ring.get(seq), ref.get(seq); g != w {
					t.Fatalf("trial %d after %s: get(%d) = %#x, map says %#x", trial, op, seq, g, w)
				}
			}
			if g, w := ring.marked(), ref.marked(); g != w {
				t.Fatalf("trial %d after %s: marked() = %d, map says %d", trial, op, g, w)
			}
		}

		for op := 0; op < 500; op++ {
			switch rnd.Intn(10) {
			case 0, 1, 2, 3: // grow the window (send new data)
				next += int64(rnd.Intn(40))
			case 4, 5, 6: // mark a live (or just-settled) sequence
				if next == base {
					continue
				}
				seq := base - 1 + rnd.Int63n(next-base+1)
				bits := bitsChoices[rnd.Intn(len(bitsChoices))]
				ring.or(seq, bits)
				ref.or(seq, bits)
			case 7, 8: // cumulative advance, sometimes past every mark
				newUna := base + rnd.Int63n(next-base+2)
				gr, wr := ring.advance(newUna), ref.advance(newUna)
				if gr != wr {
					t.Fatalf("trial %d: advance(%d) reclaimed %d, map says %d", trial, newUna, gr, wr)
				}
				if newUna > base {
					base = newUna
					if next < base {
						next = base
					}
				}
			case 9: // RTO rebuild
				ring.reset(base)
				ref.reset(base)
			}
			check("op")
		}
	}
}

// diffHarness pairs a ring-scoreboard sender with a map-scoreboard
// sender so a trace can be applied to both.
type diffHarness struct {
	ring, ref *harness
}

func newDiffHarness(window float64) *diffHarness {
	d := &diffHarness{ring: newHarness(window), ref: newHarness(window)}
	d.ref.snd.sb = newMapScoreboard(0)
	d.ring.start()
	d.ref.start()
	return d
}

// step feeds the same crafted ACK to both senders and asserts their
// externally visible transport state stayed identical.
func (d *diffHarness) step(t *testing.T, cum, acked int64, at units.Duration) {
	t.Helper()
	d.ring.ack(cum, acked, at)
	d.ref.ack(cum, acked, at)
	if a, b := d.ring.snd.sndUna, d.ref.snd.sndUna; a != b {
		t.Fatalf("sndUna diverged: ring %d, map %d", a, b)
	}
	if a, b := d.ring.snd.nextSeq, d.ref.snd.nextSeq; a != b {
		t.Fatalf("nextSeq diverged: ring %d, map %d", a, b)
	}
	if a, b := d.ring.snd.excluded, d.ref.snd.excluded; a != b {
		t.Fatalf("excluded diverged: ring %d, map %d", a, b)
	}
	if a, b := d.ring.snd.sb.marked(), d.ref.snd.sb.marked(); a != b {
		t.Fatalf("marked entries diverged: ring %d, map %d", a, b)
	}
}

// TestSenderRingMatchesMapOnRandomTraces runs two full senders — one on
// each scoreboard — through identical randomized ACK/SACK/loss/reorder
// traces, including silent gaps long enough to fire RTOs, and requires
// the transmitted packet streams, pipe accounting, and loss statistics
// to match exactly at every step.
func TestSenderRingMatchesMapOnRandomTraces(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rnd := rand.New(rand.NewSource(int64(1000 + trial)))
		d := newDiffHarness(float64(4 + rnd.Intn(16)))
		now := units.Duration(0)
		for step := 0; step < 300; step++ {
			now += units.Duration(rnd.Intn(20)+1) * units.Millisecond
			if rnd.Intn(60) == 0 {
				// Silence long enough for the RTO to fire in both.
				now += 3 * units.Second
			}
			una, next := d.ring.snd.sndUna, d.ring.snd.nextSeq
			acked := next // out of range: pure time advance
			if next > una {
				acked = una + rnd.Int63n(next-una)
			}
			var cum int64
			switch rnd.Intn(3) {
			case 0: // in-order delivery
				cum = acked
			case 1: // pure SACK, cumulative point stuck
				cum = una - 1
			case 2: // partial advance below the sacked packet
				cum = una - 1 + rnd.Int63n(acked-una+2)
			}
			d.step(t, cum, acked, now)
		}
		if a, b := len(d.ring.out.sent), len(d.ref.out.sent); a != b {
			t.Fatalf("trial %d: sent %d packets on ring, %d on map", trial, a, b)
		}
		for i := range d.ring.out.sent {
			p, q := d.ring.out.sent[i], d.ref.out.sent[i]
			if p.Seq != q.Seq || p.Retransmit != q.Retransmit {
				t.Fatalf("trial %d: packet %d diverged: ring seq=%d retx=%v, map seq=%d retx=%v",
					trial, i, p.Seq, p.Retransmit, q.Seq, q.Retransmit)
			}
		}
		if a, b := *d.ring.stats, *d.ref.stats; a.Retransmits != b.Retransmits || a.Timeouts != b.Timeouts {
			t.Fatalf("trial %d: stats diverged: ring %+v, map %+v", trial, a, b)
		}
	}
}

// sprayDiamond is fanoutDiamond with endpoints: one flow enters l0,
// which sprays its packets round-robin over l1 and l2 into the
// receiver. l2's propagation delay is several serialization times
// longer than l1's, so every other packet overtakes its predecessor
// and the receiver sees sustained reordering.
func sprayDiamond(alg cc.Algorithm, wl workload.Source) *Network {
	nw := New()
	q := func() queue.Discipline { return queue.NewDropTail(16 * packet.MTU) }
	l0 := nw.NewLink(10*units.Mbps, 5*units.Millisecond, q())
	l1 := nw.NewLink(10*units.Mbps, 5*units.Millisecond, q())
	l2 := nw.NewLink(10*units.Mbps, 25*units.Millisecond, q())
	st := &FlowStats{Flow: 0, PropDelay: 10 * units.Millisecond, MinRTT: 20 * units.Millisecond}
	rcv := nw.NewReceiver(0, 10*units.Millisecond, st)
	snd := NewSender(nw.Sched, 0, alg, l0, st)
	rcv.SetSender(snd)
	nw.AddFlow(&Flow{Sender: snd, Receiver: rcv, Stats: st, Workload: wl})
	l1.SetRoute([]Deliverer{rcv})
	l2.SetRoute([]Deliverer{rcv})
	l0.SetMultiRoute(
		[]Deliverer{nil},
		[]NextHops{{Cands: []Deliverer{l1, l2}}},
		SelectSpray,
	)
	return nw
}

// buildParkingLot wires len(rates) links in series, each hopProp long
// behind a drop-tail buffer of buf bytes: flow 0 crosses them all, and
// flow i+1 is the cross traffic of link i alone. With equal rates every
// serializer, every hop and every cross flow's reverse path have the
// same delays, so the whole network runs on three lanes.
func buildParkingLot(rates []units.Rate, hopProp units.Duration, buf int,
	mk func(i int) cc.Algorithm, wl func(i int) workload.Source) *Network {

	nw := New()
	for _, r := range rates {
		nw.NewLink(r, hopProp, queue.NewDropTail(buf))
	}
	n := len(rates)
	for i := 0; i <= n; i++ {
		first, hops := 0, n // the long flow
		if i > 0 {
			first, hops = i-1, 1
		}
		prop := units.Duration(hops) * hopProp
		st := &FlowStats{Flow: i, PropDelay: prop, MinRTT: 2 * prop}
		rcv := nw.NewReceiver(i, prop, st)
		snd := NewSender(nw.Sched, i, mk(i), nw.Links[first], st)
		rcv.SetSender(snd)
		nw.AddFlow(&Flow{Sender: snd, Receiver: rcv, Stats: st, Workload: wl(i)})
	}
	for li, l := range nw.Links {
		next := make([]Deliverer, n+1)
		next[0], next[li+1] = nw.Flows[0].Receiver, nw.Flows[li+1].Receiver
		if li < n-1 {
			next[0] = nw.Links[li+1]
		}
		l.SetRoute(next)
	}
	return nw
}

// diffNet is one network of the end-to-end differential set, with the
// per-flow counter that shows a run exercised what the case is named
// for; shared marks a case whose stages mostly have equal delays.
type diffNet struct {
	name    string
	build   func(seed uint64) *Network
	nonzero func(*FlowStats) int64
	shared  bool
}

// onOff gives flow i of a differential network its seeded workload.
func onOff(seed uint64) func(int) workload.Source {
	return func(i int) workload.Source {
		return &workload.OnOff{MeanOn: units.Second, MeanOff: units.Second / 2, Rng: rng.New(seed).SplitN("workload", i)}
	}
}

// mixedCC pits a Cubic flow against fixed-window ones.
func mixedCC(i int) cc.Algorithm {
	if i == 0 {
		return cubic.New()
	}
	return &fixedCC{w: 40}
}

// diffNets is the network set the end-to-end differential tests share
// (scoreboard against map here, delay lanes against per-packet events in
// lanes_test.go): drop-tail overflow recovered by SACK, AQM drops,
// a buffer tight enough that RTOs fire, sustained reordering under
// spray, and a three-hop parking lot with cross traffic whose equal
// rates put all its serializers on one lane and all its hops on another.
func diffNets() []diffNet {
	return []diffNet{
		{name: "equal-rate-parking-lot", build: func(seed uint64) *Network {
			r := 8 * units.Mbps
			return buildParkingLot([]units.Rate{r, r, r}, 10*units.Millisecond, 8*packet.MTU, mixedCC, onOff(seed))
		}, nonzero: func(st *FlowStats) int64 { return st.Retransmits }, shared: true},
		{name: "droptail-overflow", build: func(seed uint64) *Network {
			return buildDumbbell(8*units.Mbps, 40*units.Millisecond,
				queue.NewDropTail(8*packet.MTU), 2, mixedCC, onOff(seed))
		}, nonzero: func(st *FlowStats) int64 { return st.Retransmits }},
		{name: "sfqcodel-aqm-drops", build: func(seed uint64) *Network {
			return buildDumbbell(8*units.Mbps, 40*units.Millisecond,
				queue.NewSFQCoDel(queue.SFQCoDelBins, 64*packet.MTU), 2, mixedCC, onOff(seed))
		}, nonzero: func(st *FlowStats) int64 { return st.Retransmits }},
		{name: "rto", build: func(seed uint64) *Network {
			return buildDumbbell(2*units.Mbps, 40*units.Millisecond,
				queue.NewDropTail(2*packet.MTU), 2,
				func(int) cc.Algorithm { return &fixedCC{w: 60} }, onOff(seed))
		}, nonzero: func(st *FlowStats) int64 { return st.Timeouts }},
		{name: "spray-reordering", build: func(seed uint64) *Network {
			return sprayDiamond(cubic.New(), onOff(seed)(0))
		}, nonzero: func(st *FlowStats) int64 { return st.Reordered }},
	}
}

// TestRingScoreboardMatchesMap is the end-to-end cross-check: whole
// networks run twice from the same seed, once on the shipping ring
// scoreboard and once with every sender's sb swapped for the map
// oracle, must finish with identical FlowStats in every field. The
// cases cover each way the scoreboard is exercised, and each asserts
// the counter that makes it non-vacuous.
func TestRingScoreboardMatchesMap(t *testing.T) {
	for _, tc := range diffNets() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				ring := tc.build(seed).Run(10 * units.Second)

				ref := tc.build(seed)
				for _, f := range ref.Flows {
					f.Sender.sb = newMapScoreboard(0)
				}
				mapped := ref.Run(10 * units.Second)

				var exercised int64
				for i := range ring {
					if *ring[i] != *mapped[i] {
						t.Fatalf("seed %d flow %d:\nring %+v\nmap  %+v", seed, i, *ring[i], *mapped[i])
					}
					exercised += tc.nonzero(ring[i])
				}
				if exercised == 0 {
					t.Fatalf("seed %d: case never exercised what it is named for; comparison is vacuous", seed)
				}
			}
		})
	}
}
