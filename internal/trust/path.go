package trust

import (
	"container/heap"
	"fmt"

	"swrec/internal/graph"
	"swrec/internal/model"
)

// PathTrustOptions parameterize the scalar path-multiplication baseline.
type PathTrustOptions struct {
	// Horizon bounds the path length in hops. Default 4.
	Horizon int
	// MinTrust prunes paths whose accumulated strength falls below this
	// value; it bounds exploration the way Appleseed's energy threshold
	// does. Default 0.01.
	MinTrust float64
}

func (o PathTrustOptions) withDefaults() PathTrustOptions {
	if o.Horizon == 0 {
		o.Horizon = 4
	}
	if o.MinTrust == 0 {
		o.MinTrust = 0.01
	}
	return o
}

func (o PathTrustOptions) validate() error {
	if o.Horizon < 1 {
		return fmt.Errorf("trust: horizon must be >= 1, got %d", o.Horizon)
	}
	if o.MinTrust < 0 || o.MinTrust >= 1 {
		return fmt.Errorf("trust: min trust must be in [0,1), got %v", o.MinTrust)
	}
	return nil
}

// ptItem is one frontier entry of the best-path search. The agent is
// carried both as ID (for the Network fetch) and as its discovery-order
// node index (for the dense best/done tables).
type ptItem struct {
	agent    model.AgentID
	node     int32
	strength float64
	hops     int32
}

// ptHeap is a max-heap on path strength, so peers are finalized in
// best-first order (Dijkstra over the (max, ×) semiring).
type ptHeap []ptItem

func (h ptHeap) Len() int            { return len(h) }
func (h ptHeap) Less(i, j int) bool  { return h[i].strength > h[j].strength }
func (h ptHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *ptHeap) Push(x interface{}) { *h = append(*h, x.(ptItem)) }
func (h *ptHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// PathTrust scores every peer reachable from source within the horizon by
// the strength of the best multiplicative chain of positive trust values,
// in the tradition of scalar metrics for open networks (Beth, Borcherding
// & Klein [10]). It is the experiments' stand-in for classic scalar trust
// metrics: unlike Appleseed it evaluates each peer independently of how
// many distinct paths support it.
//
// Discovered agents are interned to dense node indices once; the
// relaxation loop's best/done state is flat slices indexed by node, so a
// peer reached over many paths hashes its URI once, not once per path.
func PathTrust(net Network, source model.AgentID, opt PathTrustOptions) (*Neighborhood, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}

	var sym graph.Interner
	sym.Reserve(net.c.NumAgents())
	sym.Intern(string(source))
	// best[node] is the strongest chain found so far; 0 doubles as "not
	// reached", which is unambiguous because only positive trust values
	// multiply into a strength.
	best := []float64{1}
	done := []bool{false}
	node := func(id model.AgentID) int32 {
		i := sym.Intern(string(id))
		if i == len(best) {
			best = append(best, 0)
			done = append(done, false)
		}
		return int32(i)
	}

	h := &ptHeap{{agent: source, node: 0, strength: 1, hops: 0}}
	explored := 0
	maxHops := int32(0)

	for h.Len() > 0 {
		it := heap.Pop(h).(ptItem)
		if done[it.node] || it.strength < best[it.node] {
			continue
		}
		done[it.node] = true
		if it.hops > maxHops {
			maxHops = it.hops
		}
		if int(it.hops) >= opt.Horizon {
			continue
		}
		explored++
		for _, st := range net.peers(it.agent) {
			if st.Value <= 0 {
				continue
			}
			s := it.strength * st.Value
			if s < opt.MinTrust {
				continue
			}
			ni := node(st.Dst)
			if done[ni] {
				continue
			}
			if prev := best[ni]; prev == 0 || s > prev {
				best[ni] = s
				heap.Push(h, ptItem{agent: st.Dst, node: ni, strength: s, hops: it.hops + 1})
			}
		}
	}

	nb := &Neighborhood{Source: source, Iterations: int(maxHops), Explored: explored}
	for i := 1; i < len(best); i++ {
		if best[i] == 0 {
			continue // interned but pruned below MinTrust
		}
		nb.Ranks = append(nb.Ranks, Rank{Agent: model.AgentID(sym.Name(i)), Trust: best[i]})
	}
	sortRanks(nb.Ranks)
	return nb, nil
}
