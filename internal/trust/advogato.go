package trust

import (
	"fmt"

	"swrec/internal/graph"
	"swrec/internal/model"
)

// AdvogatoOptions parameterize the Advogato group trust metric
// (Levien & Aiken [11]), the paper's baseline: a max-flow computation over
// a node-split trust graph that yields boolean accept/reject decisions —
// precisely the coarseness Appleseed's continuous ranks improve upon.
type AdvogatoOptions struct {
	// CapacityProfile assigns flow capacity by BFS distance from the
	// source: profile[0] is the source's capacity, profile[1] that of its
	// direct trustees, and so on. Agents beyond the profile get capacity
	// 1 (they can only certify themselves). The default, {200, 50, 12,
	// 4, 2, 1}, follows Advogato's published decreasing-capacity scheme.
	CapacityProfile []int
	// MinWeight is the smallest trust value that counts as a
	// certification edge; Advogato's input is boolean, so continuous
	// statements are thresholded. Default 0 (any positive statement).
	MinWeight float64
}

func (o AdvogatoOptions) withDefaults() AdvogatoOptions {
	if len(o.CapacityProfile) == 0 {
		o.CapacityProfile = []int{200, 50, 12, 4, 2, 1}
	}
	return o
}

func (o AdvogatoOptions) validate() error {
	for i, c := range o.CapacityProfile {
		if c < 1 {
			return fmt.Errorf("trust: capacity profile entry %d must be >= 1, got %d", i, c)
		}
	}
	return nil
}

// infiniteCap stands in for unbounded arc capacity in the flow network.
const infiniteCap = 1 << 30

// Advogato computes the boolean trust neighborhood of source: the set of
// peers accepted by the max-flow certification. Every accepted peer gets
// rank 1 — Advogato "can only make boolean decisions with respect to
// trustworthiness" (§3.2).
//
// Construction (the node-splitting transform of [11]):
//
//   - BFS from the source over positive trust edges, bounded by the
//     capacity profile length, assigns each discovered agent a capacity
//     cap(x) by distance;
//   - each agent x becomes x⁻ → x⁺ with capacity cap(x)-1, plus a
//     unit-capacity edge x⁻ → supersink;
//   - each certification x → y becomes x⁺ → y⁻ with infinite capacity;
//   - a peer is accepted iff the max flow from source⁻ to the supersink
//     saturates its unit edge.
func Advogato(net Network, source model.AgentID, opt AdvogatoOptions) (*Neighborhood, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	horizon := len(opt.CapacityProfile)

	// Level-bounded BFS, fetching trust statements as we go.
	var in graph.Interner
	src := in.Intern(string(source))
	dist := []int{0}
	type edge struct{ from, to int }
	var certEdges []edge
	queue := []int{src}
	explored := 0
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if dist[x] >= horizon {
			continue // beyond the profile: do not expand further
		}
		explored++
		for _, st := range net.peers(model.AgentID(in.Name(x))) {
			if st.Value <= opt.MinWeight || string(st.Dst) == in.Name(x) {
				continue
			}
			before := in.Len()
			y := in.Intern(string(st.Dst))
			if in.Len() > before {
				dist = append(dist, dist[x]+1)
				queue = append(queue, y)
			}
			certEdges = append(certEdges, edge{from: x, to: y})
		}
	}

	// Build the node-split flow network. Agent i maps to in-node 2i and
	// out-node 2i+1; the supersink sits past all split nodes.
	n := in.Len()
	sink := 2 * n
	fn := graph.NewFlowNetwork(2*n + 1)
	unitArc := make([]int, n) // arc index of each agent's x⁻→sink edge
	arcs := 0
	addArc := func(from, to, c int) int {
		fn.AddArc(from, to, c)
		arcs++
		return arcs - 1
	}
	capOf := func(i int) int {
		if dist[i] < len(opt.CapacityProfile) {
			return opt.CapacityProfile[dist[i]]
		}
		return 1
	}
	for i := 0; i < n; i++ {
		addArc(2*i, 2*i+1, capOf(i)-1)
		unitArc[i] = addArc(2*i, sink, 1)
	}
	for _, e := range certEdges {
		addArc(2*e.from+1, 2*e.to, infiniteCap)
	}

	fn.MaxFlow(2*src, sink)

	nb := &Neighborhood{Source: source, Iterations: horizon, Explored: explored}
	for i := 1; i < n; i++ { // skip the source itself
		if fn.Flow(unitArc[i]) > 0 {
			nb.Ranks = append(nb.Ranks, Rank{Agent: model.AgentID(in.Name(i)), Trust: 1})
		}
	}
	sortRanks(nb.Ranks)
	return nb, nil
}
