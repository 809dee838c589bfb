package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"learnability/internal/cc"
	"learnability/internal/cc/cubic"
	"learnability/internal/cc/newreno"
	"learnability/internal/cc/remycc"
	"learnability/internal/cc/vegas"
	"learnability/internal/rng"
	"learnability/internal/scenario"
	"learnability/internal/topo"
	"learnability/internal/units"
	wload "learnability/internal/workload"
)

// evalOp is one scenario.Run of an eval workload. spec builds a fresh
// Spec each call: controllers carry per-run state and must never be
// shared between runs.
type evalOp struct {
	name string
	spec func() scenario.Spec
}

// algorithms are the congestion controllers the eval sweeps cross.
// "tao" runs the committed trained tree, not the untrained single
// whisker, which barely sends.
func algorithms(tree *remycc.Tree) map[string]func() cc.Algorithm {
	return map[string]func() cc.Algorithm{
		"cubic":   func() cc.Algorithm { return cubic.New() },
		"newreno": func() cc.Algorithm { return newreno.New() },
		"vegas":   func() cc.Algorithm { return vegas.New() },
		"tao":     func() cc.Algorithm { return remycc.New(tree) },
	}
}

// opSeed is eval op i's scenario seed under benchmark seed s.
func opSeed(s uint64, i int) uint64 { return 1000*(s+1) + uint64(i) }

// onOff is sender i's workload under an op's seed: an on/off process
// like the paper's, but with each period drawn uniformly within a fifth
// of its mean instead of exponentially, and a start staggered within
// one off period. Under exponential periods a pass's cost followed the
// seed (a rare 4 s burst at 1 Gbps costs more than the rest of the
// sweep): ten seeds spread packets per second by 6 to 9 %, allocations
// by 13 % and peak RSS by 50 %. Bounded periods keep every seed's
// packet-level inputs different and their cost alike.
func onOff(seed uint64, i int, meanOn, meanOff, duration units.Duration) wload.Source {
	r := rng.New(seed).SplitN("workload", i)
	period := func(mean units.Duration) units.Duration {
		return units.Duration(r.Uniform(0.8, 1.2) * float64(mean))
	}
	w := &wload.Deterministic{}
	at := units.Time(0).Add(units.Duration(r.Float64() * float64(meanOff)))
	for on := true; at < units.Time(duration); on = !on {
		w.Transitions = append(w.Transitions, wload.Transition{At: at, On: on})
		if on {
			at = at.Add(period(meanOn))
		} else {
			at = at.Add(period(meanOff))
		}
	}
	return w
}

// senders returns n endpoints, each with a fresh alg and its own
// on/off schedule.
func senders(n int, alg func() cc.Algorithm, seed uint64, meanOn, meanOff, duration units.Duration) []scenario.Sender {
	out := make([]scenario.Sender, n)
	for i := range out {
		out[i] = scenario.Sender{Alg: alg(), Delta: 1, Workload: onOff(seed, i, meanOn, meanOff, duration)}
	}
	return out
}

// The dumbbell's flows stay on for 3 s at a time, twenty round trips:
// long enough for slow start to fill a 1 Gbps pipe and its 5 BDP buffer
// and run into loss, which the paper's 1 s mean seldom is.
const dumbbellOn, dumbbellOff = 3 * units.Second, units.Second

// dumbbellOps is Figure 2's sweep shape: every algorithm at seven link
// speeds from 1 Mbps to 1 Gbps on a 150 ms, two-sender dumbbell.
func dumbbellOps(seed uint64, sc scale, tree *remycc.Tree) []evalOp {
	algs := algorithms(tree)
	var ops []evalOp
	for _, a := range []string{"cubic", "newreno", "vegas", "tao"} {
		for _, mbps := range []float64{1, 3.2, 10, 32, 100, 320, 1000} {
			alg, rate, s := algs[a], units.Rate(mbps*float64(units.Mbps)), opSeed(seed, len(ops))
			ops = append(ops, evalOp{
				name: fmt.Sprintf("dumbbell/%s@%gMbps", a, mbps),
				spec: func() scenario.Spec {
					return scenario.Spec{
						Topology:  scenario.Dumbbell,
						LinkSpeed: rate,
						MinRTT:    150 * units.Millisecond,
						Buffering: scenario.FiniteDropTail,
						BufferBDP: 5,
						Duration:  sc.dumbbellDur,
						Seed:      rng.New(s),
						Senders:   senders(2, alg, s, dumbbellOn, dumbbellOff, sc.dumbbellDur),
					}
				},
			})
		}
	}
	return ops
}

// The fabric's flows are on and off for ten of its 20 ms round trips at
// a time, as the dumbbell's are for seven of its 150 ms ones.
const fabricOn, fabricOff = 200 * units.Millisecond, 200 * units.Millisecond

// fabricOps uses the same event core differently: a k=4 fat-tree
// permutation under three routing policies and a three-hop parking lot
// with cross traffic, each over three gateway queues, for Cubic and
// Tao. Many links, a small bandwidth-delay product, multi-hop
// forwarding, per-packet path choice, AQM dequeue laws and ECN echo.
func fabricOps(seed uint64, sc scale, tree *remycc.Tree) []evalOp {
	algs := algorithms(tree)
	queues := []struct {
		name string
		buf  scenario.Buffering
		ecn  bool
	}{
		{"droptail", scenario.FiniteDropTail, false},
		{"sfqcodel", scenario.SfqCoDel, false},
		{"codel+ecn", scenario.CoDelAQM, true},
	}
	var ops []evalOp
	add := func(name string, t scenario.Topology, buf scenario.Buffering, ecn bool, a string) {
		alg, s := algs[a], opSeed(seed, len(ops))
		ops = append(ops, evalOp{
			name: name,
			spec: func() scenario.Spec {
				return scenario.Spec{
					Topology:  t,
					LinkSpeed: 32 * units.Mbps,
					MinRTT:    20 * units.Millisecond,
					Buffering: buf,
					BufferBDP: 5,
					ECN:       ecn,
					Duration:  sc.fabricDur,
					Seed:      rng.New(s),
					Senders:   senders(t.FlowCount(0), alg, s, fabricOn, fabricOff, sc.fabricDur),
				}
			},
		})
	}
	for _, r := range []topo.RoutingPolicy{topo.ECMP, topo.Spray, topo.Adaptive} {
		for _, q := range queues {
			for _, a := range []string{"cubic", "tao"} {
				add(fmt.Sprintf("fattree4/%v/%s/%s", r, q.name, a), scenario.FatTreeTopology(4, r), q.buf, q.ecn, a)
			}
		}
	}
	for _, q := range queues {
		for _, a := range []string{"cubic", "tao"} {
			add(fmt.Sprintf("parkinglot3x/%s/%s", q.name, a), scenario.ParkingLotN(3, true), q.buf, q.ecn, a)
		}
	}
	return ops
}

// checkResults is the output check of one scenario op: one Result per
// flow, no NaN, at least one flow delivered, and no flow delivered
// more bytes than its fastest link can carry in the simulated time.
// (Throughput is bytes over *on* time, so it may itself exceed the
// link rate when a queue drains after the sender went off; the bytes
// cannot.)
func checkResults(spec scenario.Spec, res []scenario.Result) error {
	if len(res) != len(spec.Senders) {
		return fmt.Errorf("%d results for %d flows", len(res), len(spec.Senders))
	}
	delivered := false
	for i, r := range res {
		if r.Flow != i {
			return fmt.Errorf("result %d reports flow %d", i, r.Flow)
		}
		for _, v := range []float64{float64(r.Throughput), float64(r.FairShare), r.Delta} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("flow %d: non-finite result %+v", i, r)
			}
		}
		if r.Throughput < 0 || r.Delay < 0 || r.QueueDelay < 0 || r.OnTime < 0 || r.OnTime > spec.Duration {
			return fmt.Errorf("flow %d: out-of-range result %+v", i, r)
		}
		bits := float64(r.Throughput) * r.OnTime.Seconds()
		if limit := float64(spec.LinkSpeed) * spec.Duration.Seconds(); bits > limit*(1+1e-9) {
			return fmt.Errorf("flow %d delivered %.0f bits, the link carries %.0f", i, bits, limit)
		}
		if r.Throughput > 0 {
			delivered = true
		}
	}
	if !delivered {
		return fmt.Errorf("no flow delivered anything")
	}
	return nil
}

// digestResults hashes the IEEE bits of every field of every Result,
// in flow order.
func digestResults(res []scenario.Result) [32]byte {
	buf := make([]byte, 0, len(res)*80)
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	for _, r := range res {
		put(uint64(r.Flow))
		put(math.Float64bits(float64(r.Throughput)))
		put(uint64(r.Delay))
		put(uint64(r.QueueDelay))
		put(uint64(r.MinRTT))
		put(math.Float64bits(float64(r.FairShare)))
		put(uint64(r.OnTime))
		put(uint64(r.Retransmits))
		put(uint64(r.Timeouts))
		put(math.Float64bits(r.Delta))
	}
	return sha256.Sum256(buf)
}

// evalSession runs an eval workload's op list.
type evalSession struct {
	ops []evalOp
}

func (s *evalSession) opNames() []string {
	names := make([]string, len(s.ops))
	for i, op := range s.ops {
		names[i] = op.name
	}
	return names
}

func (s *evalSession) close() {}

// outcome checks and digests one op's results, after the op's clock
// stopped.
func outcome(ns int64, spec scenario.Spec, res []scenario.Result, err error) opOutcome {
	if err == nil {
		err = checkResults(spec, res)
	}
	if err != nil {
		return opOutcome{ns: ns, err: err}
	}
	return opOutcome{ns: ns, digest: digestResults(res)}
}

// pass runs every op through scenario.Run, the pooled-world path the
// experiment runners use. (Checking and hashing an op's few results
// costs microseconds of the pass's wall time.)
func (s *evalSession) pass() passResult {
	p := newPassResult(len(s.ops))
	t0 := time.Now()
	for i, op := range s.ops {
		spec := op.spec()
		o0 := time.Now()
		res, err := scenario.Run(spec)
		p.ops[i] = outcome(time.Since(o0).Nanoseconds(), spec, res, err)
	}
	p.wall = time.Since(t0)
	return p
}

// evalCounters sums what the layers export after each fresh run.
type evalCounters struct {
	arrivals, sent, retx, timeouts, reordered int64
	events, ticks, heapSum                    int64
	poolGets, poolReuses                      int64
	offered, drops, marks                     int64
	linkOut                                   int64
	buildAllocs                               uint64
}

// heapSamples is how many times per op the traced pass reads
// Scheduler.Len. Few enough that the sampler's own events (subtracted
// from the event count) do not disturb a 1 Mbps run of 6 000 events.
const heapSamples = 256

// traced runs every op on a freshly built world through Layout, Build
// and Finish, which is the only way to reach the counters the layers
// export (scenario.Run returns Results alone). With a tracer it
// records a span around each call and, with lm, fills the per-layer
// metrics; with neither it is the fresh pass that counts an untraced
// run's packets and checks pooled against fresh digests.
func (s *evalSession) traced(tr *tracer, lm *metricSet, refs []passResult) passResult {
	var c evalCounters
	p := newPassResult(len(s.ops))
	t0 := time.Now()
	for i, op := range s.ops {
		spec := op.spec()
		o0 := time.Now()
		root := tr.begin(op.name, -1, i)

		id := tr.begin("scenario.layout", root, i)
		_, err := spec.Layout()
		tr.end(id)
		if err != nil {
			tr.end(root)
			p.ops[i] = opOutcome{err: err}
			continue
		}

		var m0, m1 runtime.MemStats
		if lm != nil {
			runtime.ReadMemStats(&m0)
		}
		id = tr.begin("scenario.build", root, i)
		nw, queues, err := scenario.Build(spec)
		tr.end(id)
		if err != nil {
			tr.end(root)
			p.ops[i] = opOutcome{err: err}
			continue
		}
		if lm != nil {
			runtime.ReadMemStats(&m1)
			c.buildAllocs += m1.Mallocs - m0.Mallocs
			nw.Sample(spec.Duration/heapSamples, func(units.Time) {
				c.heapSum += int64(nw.Sched.Len())
				c.ticks++
			})
		}

		id = tr.begin("scenario.finish", root, i)
		res := scenario.Finish(spec, nw)
		tr.end(id)
		tr.end(root)
		p.ops[i] = outcome(time.Since(o0).Nanoseconds(), spec, res, nil)

		for _, f := range nw.Flows {
			c.arrivals += f.Stats.Arrivals
			c.sent += f.Stats.SentPackets
			c.retx += f.Stats.Retransmits
			c.timeouts += f.Stats.Timeouts
			c.reordered += f.Stats.Reordered
		}
		c.events += int64(nw.Sched.Processed())
		c.poolGets += nw.Pool.Gets
		c.poolReuses += nw.Pool.Reuses
		for _, q := range queues {
			st := q.Stats()
			c.offered += st.Enqueued + st.DropsTail
			c.drops += st.Drops()
			c.marks += st.MarksECN
		}
		for _, l := range nw.Links {
			_, out := l.Counts()
			c.linkOut += out
		}
	}
	p.wall = time.Since(t0)
	p.work = c.arrivals
	if lm == nil {
		return p
	}

	n := float64(len(s.ops))
	events := float64(c.events - c.ticks) // the sampler's own events are the harness's
	layoutNS := tr.total("scenario.layout")
	buildNS := tr.total("scenario.build")
	finishNS := tr.total("scenario.finish")
	lm.set("sim.events_per_pkt", ratio(events, float64(c.arrivals)))
	lm.set("sim.ns_per_event", ratio(float64(finishNS), events))
	lm.set("sim.heap_len_mean", ratio(float64(c.heapSum), float64(c.ticks)))
	lm.set("packet.reuse_share", ratio(float64(c.poolReuses), float64(c.poolGets)))
	lm.set("packet.gets_per_pkt", ratio(float64(c.poolGets), float64(c.arrivals)))
	lm.set("queue.drop_share", ratio(float64(c.drops), float64(c.offered)))
	lm.set("queue.mark_share", ratio(float64(c.marks), float64(c.offered)))
	lm.set("netsim.retx_share", ratio(float64(c.retx), float64(c.sent)))
	lm.set("netsim.timeouts_per_run", float64(c.timeouts)/n)
	lm.set("netsim.reordered_share", ratio(float64(c.reordered), float64(c.arrivals)))
	lm.set("netsim.hops_per_pkt", ratio(float64(c.linkOut), float64(c.arrivals)))
	lm.set("scenario.layout_us", float64(layoutNS)/1e3/n)
	lm.set("scenario.build_us", float64(buildNS)/1e3/n)
	lm.set("scenario.build_allocs", float64(c.buildAllocs)/n)
	lm.set("scenario.finish_us", float64(finishNS)/1e3/n)
	lm.set("scenario.build_share", ratio(float64(buildNS), float64(buildNS+finishNS)))
	// What recycling a pooled world saves per op: fresh Build+Finish
	// against the median pooled Run of the same op.
	var pooledNS float64
	for i := range s.ops {
		pooledNS += median(opSamples(refs, i))
	}
	lm.set("scenario.recycle_saving_us", (float64(buildNS+finishNS)-pooledNS)/1e3/n)
	return p
}
