package trust

import "swrec/internal/model"

// WidenOneHop expands a computed neighborhood by one trust hop beyond
// its current range — the ladder's answer to thin neighborhoods where
// the metric's "predefined range" (§3.2) left too few peers to vote.
// Following the horizon-widening idea of Jamali's distributed
// trust-aware recommendation, every positively trusted peer of the
// source or of a current member that is not yet in range joins with
//
//	rank(y) = decay · rank(x) · t_x(y)
//
// where x is the contributing member (the source contributes with the
// neighborhood's maximum rank, or 1 when the neighborhood is empty) and
// t_x(y) its positive trust statement. A peer reachable from several
// members keeps the strongest contribution. Existing members keep their
// ranks untouched; negative statements never widen (distrust must not
// recruit). The input neighborhood is not modified.
//
// Membership and contributions live in flat tables indexed by
// Agent.Ord, so no edge visit hashes a URI, and the touched list keeps
// the collection pass proportional to the widened frontier rather than
// the community size. Members or a source the network does not know
// contribute nothing.
func WidenOneHop(net Network, nb *Neighborhood, decay float64) *Neighborhood {
	if decay <= 0 || decay > 1 {
		decay = 0.5
	}
	n := net.c.NumAgents()
	in := make([]bool, n)
	added := make([]float64, n)
	var touched []*model.Agent

	src := net.c.Agent(nb.Source)
	if src != nil {
		in[src.Ord()] = true
	}
	maxRank := 0.0
	for _, r := range nb.Ranks {
		if a := net.c.Agent(r.Agent); a != nil {
			in[a.Ord()] = true
		}
		if r.Trust > maxRank {
			maxRank = r.Trust
		}
	}
	if maxRank <= 0 {
		maxRank = 1
	}

	explored := 0
	contribute := func(from *model.Agent, rank float64) {
		if from == nil {
			return
		}
		explored++
		for _, pr := range net.c.TrustRefs(from) {
			if pr.Value <= 0 {
				continue
			}
			ord := pr.Peer.Ord()
			if in[ord] {
				continue
			}
			if r := decay * rank * pr.Value; r > added[ord] {
				if added[ord] == 0 {
					touched = append(touched, pr.Peer)
				}
				added[ord] = r
			}
		}
	}
	contribute(src, maxRank)
	for _, r := range nb.Ranks {
		contribute(net.c.Agent(r.Agent), r.Trust)
	}

	out := &Neighborhood{
		Source:     nb.Source,
		Iterations: nb.Iterations,
		Explored:   nb.Explored + explored,
	}
	out.Ranks = make([]Rank, len(nb.Ranks), len(nb.Ranks)+len(touched))
	copy(out.Ranks, nb.Ranks)
	for _, ref := range touched {
		out.Ranks = append(out.Ranks, Rank{Agent: ref.ID, Trust: added[ref.Ord()]})
	}
	sortRanks(out.Ranks)
	return out
}
