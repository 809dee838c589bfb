package topo

import (
	"fmt"

	"learnability/internal/units"
)

// FatTreeDelays sets the one-way propagation delay of each tier of
// fat-tree links: host↔edge-switch, edge↔aggregation (intra-pod), and
// aggregation↔core. Symmetric values make every path of a flow
// equal-delay; asymmetric values are how the reordering stress tests
// provoke out-of-order arrival under per-packet spraying.
type FatTreeDelays struct {
	// Host is the host↔edge-switch link delay.
	Host units.Duration
	// Pod is the edge↔aggregation link delay.
	Pod units.Duration
	// Core is the aggregation↔core link delay.
	Core units.Duration
}

// FatTreeNet is a k-ary fat-tree under construction: the declarative
// Graph plus the tier-indexed link maps needed to route flows through
// it. Build the switch fabric with FatTree, place flows with AddFlow or
// a placement helper (AddPermutation, AddAllToAll, AddIncast), then
// hand G to the scenario engine.
//
// The fabric is the classic three-tier Clos: k pods, each with k/2
// edge switches (k/2 hosts each) and k/2 aggregation switches, plus
// (k/2)² core switches; aggregation switch a in every pod connects to
// cores a·(k/2)…a·(k/2)+k/2−1. Inter-pod flows have (k/2)² equal-cost
// paths of 6 links, intra-pod flows k/2 paths of 4 links, same-edge
// flows a single 2-link path.
type FatTreeNet struct {
	// K is the fat-tree's arity (even, >= 2).
	K int
	// G is the declarative graph: all fabric links, plus one route per
	// added flow. G.Routing starts at ECMP; set it before building.
	G Graph
	// Pairs records each added flow's (source host, destination host),
	// in flow order.
	Pairs [][2]int

	hostUp, hostDown []int     // [host]
	edgeUp           [][][]int // [pod][edge][agg]: edge switch -> aggregation
	aggDown          [][][]int // [pod][agg][edge]: aggregation -> edge switch
	aggUp            [][][]int // [pod][agg][j]: aggregation -> core a*(k/2)+j
	coreDown         [][]int   // [core][pod]: core -> owning aggregation in pod
}

// FatTree builds the switch fabric of a k-ary fat-tree with every link
// at the given rate and per-tier delays d. k must be even and at least
// 2 (k=4 is the smallest arity with path diversity: 4 paths between
// pods). The returned net has no flows yet.
func FatTree(k int, rate units.Rate, d FatTreeDelays) (*FatTreeNet, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topo: fat-tree arity must be even and >= 2, got %d", k)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("topo: fat-tree with non-positive link rate %v", rate)
	}
	if d.Host < 0 || d.Pod < 0 || d.Core < 0 {
		return nil, fmt.Errorf("topo: fat-tree with negative tier delay %+v", d)
	}
	k2 := k / 2
	t := &FatTreeNet{K: k}
	addEdge := func(prop units.Duration) int {
		t.G.Edges = append(t.G.Edges, Edge{Rate: rate, Prop: prop})
		return len(t.G.Edges) - 1
	}
	hosts := k * k2 * k2
	t.hostUp = make([]int, hosts)
	t.hostDown = make([]int, hosts)
	for h := 0; h < hosts; h++ {
		t.hostUp[h] = addEdge(d.Host)
		t.hostDown[h] = addEdge(d.Host)
	}
	t.edgeUp = make([][][]int, k)
	t.aggDown = make([][][]int, k)
	t.aggUp = make([][][]int, k)
	for p := 0; p < k; p++ {
		t.edgeUp[p] = make([][]int, k2)
		t.aggDown[p] = make([][]int, k2)
		t.aggUp[p] = make([][]int, k2)
		for e := 0; e < k2; e++ {
			t.edgeUp[p][e] = make([]int, k2)
			for a := 0; a < k2; a++ {
				t.edgeUp[p][e][a] = addEdge(d.Pod)
			}
		}
		for a := 0; a < k2; a++ {
			t.aggDown[p][a] = make([]int, k2)
			for e := 0; e < k2; e++ {
				t.aggDown[p][a][e] = addEdge(d.Pod)
			}
			t.aggUp[p][a] = make([]int, k2)
			for j := 0; j < k2; j++ {
				t.aggUp[p][a][j] = addEdge(d.Core)
			}
		}
	}
	t.coreDown = make([][]int, k2*k2)
	for c := range t.coreDown {
		t.coreDown[c] = make([]int, k)
		for p := 0; p < k; p++ {
			t.coreDown[c][p] = addEdge(d.Core)
		}
	}
	return t, nil
}

// Hosts reports the number of hosts (k³/4).
func (t *FatTreeNet) Hosts() int { return len(t.hostUp) }

// HostDownlink reports the edge index of host h's downlink (edge
// switch → host) — the last hop of every path of every flow destined
// to h.
func (t *FatTreeNet) HostDownlink(h int) int { return t.hostDown[h] }

// pod reports which pod host h lives in; edgeSwitch its edge switch
// within the pod.
func (t *FatTreeNet) pod(h int) int        { return h / (t.K / 2 * t.K / 2) }
func (t *FatTreeNet) edgeSwitch(h int) int { return h % (t.K / 2 * t.K / 2) / (t.K / 2) }

// AddFlow routes one flow from host src to host dst, enumerating every
// equal-cost path the fabric offers (1, k/2, or (k/2)² depending on how
// far apart the hosts are) into a Route with alternates. It returns the
// new flow's index.
func (t *FatTreeNet) AddFlow(src, dst int) (int, error) {
	hosts := t.Hosts()
	if src < 0 || src >= hosts || dst < 0 || dst >= hosts {
		return 0, fmt.Errorf("topo: fat-tree flow %d->%d outside hosts [0,%d)", src, dst, hosts)
	}
	if src == dst {
		return 0, fmt.Errorf("topo: fat-tree flow from host %d to itself", src)
	}
	k2 := t.K / 2
	ps, pd := t.pod(src), t.pod(dst)
	es, ed := t.edgeSwitch(src), t.edgeSwitch(dst)
	var paths [][]int
	switch {
	case ps == pd && es == ed:
		paths = [][]int{{t.hostUp[src], t.hostDown[dst]}}
	case ps == pd:
		for a := 0; a < k2; a++ {
			paths = append(paths, []int{
				t.hostUp[src], t.edgeUp[ps][es][a], t.aggDown[ps][a][ed], t.hostDown[dst],
			})
		}
	default:
		for a := 0; a < k2; a++ {
			for j := 0; j < k2; j++ {
				c := a*k2 + j
				paths = append(paths, []int{
					t.hostUp[src], t.edgeUp[ps][es][a], t.aggUp[ps][a][j],
					t.coreDown[c][pd], t.aggDown[pd][a][ed], t.hostDown[dst],
				})
			}
		}
	}
	rt := Route{Links: paths[0]}
	if len(paths) > 1 {
		rt.Alts = paths[1:]
	}
	t.G.Routes = append(t.G.Routes, rt)
	t.Pairs = append(t.Pairs, [2]int{src, dst})
	return len(t.G.Routes) - 1, nil
}

// AddPermutation places one flow per host in a pod-crossing
// permutation: host h sends to host (h + hosts/2) mod hosts, so every
// flow leaves its pod and the core carries all of them.
func (t *FatTreeNet) AddPermutation() error {
	hosts := t.Hosts()
	for h := 0; h < hosts; h++ {
		if _, err := t.AddFlow(h, (h+hosts/2)%hosts); err != nil {
			return err
		}
	}
	return nil
}

// AddAllToAll places one flow per ordered host pair — hosts·(hosts−1)
// flows. Quadratic in hosts; meant for small arities.
func (t *FatTreeNet) AddAllToAll() error {
	hosts := t.Hosts()
	for s := 0; s < hosts; s++ {
		for d := 0; d < hosts; d++ {
			if s == d {
				continue
			}
			if _, err := t.AddFlow(s, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// AddIncast places n flows converging on host dst. Sources are drawn
// round-robin across pods (host r of pod 0, host r of pod 1, ... then
// r+1 of each), skipping dst, so small incasts exercise inter-pod path
// diversity before filling in local sources.
func (t *FatTreeNet) AddIncast(dst, n int) error {
	hosts := t.Hosts()
	if dst < 0 || dst >= hosts {
		return fmt.Errorf("topo: incast destination %d outside hosts [0,%d)", dst, hosts)
	}
	if n < 1 || n > hosts-1 {
		return fmt.Errorf("topo: incast of %d sources on %d hosts (want 1..%d)", n, hosts, hosts-1)
	}
	perPod := hosts / t.K
	added := 0
	for r := 0; r < perPod && added < n; r++ {
		for p := 0; p < t.K && added < n; p++ {
			h := p*perPod + r
			if h == dst {
				continue
			}
			if _, err := t.AddFlow(h, dst); err != nil {
				return err
			}
			added++
		}
	}
	return nil
}
