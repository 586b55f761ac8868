// Package trust implements the local group trust metrics that form the
// first pillar of the paper's approach (§3.2): trust neighborhood
// formation for an active agent a_i, relying only on partial trust graph
// information and exploring the social network within predefined ranges so
// that neighborhood detection retains scalability.
//
// Three metrics are provided:
//
//   - Appleseed (Ziegler & Lausen 2004 [12]): the paper's own local group
//     trust metric, derived from spreading activation models (Quillian
//     [13]). It assigns continuous trust ranks to peers within the
//     computation range, with high ranks accorded to agents largely
//     trusted by others of high trustworthiness.
//   - Advogato (Levien & Aiken 1998 [11]): the most well-known prior local
//     group trust metric; max-flow based and only able to make boolean
//     trustworthiness decisions — the limitation the paper contrasts
//     Appleseed against.
//   - PathTrust: a simple scalar baseline that scores each peer by the
//     strongest multiplicative trust chain from the source, standing in
//     for classic scalar metrics (Beth et al. [10]) in the experiments.
//
// All metrics consume a Network: a materialized community's trust graph,
// read through the agents' densely interned records. Appleseed and the
// one-hop widening walk index flat tables by Agent.Ord, so no edge visit
// hashes a URI; PathTrust and Advogato read the same edges as
// statements.
package trust

import (
	"slices"

	"swrec/internal/model"
)

// Network is the trust graph a metric may explore. Statements carry
// values in [-1, +1]; negative values are explicit distrust, which the
// metrics must not confuse with absence of trust (§3.1, Marsh [8]).
type Network struct { //nolint:snapshotpin -- request-scoped view: built, walked by one metric run, and dropped
	c *model.Community
}

// FromCommunity exposes a community's trust edges as a Network.
func FromCommunity(c *model.Community) Network { return Network{c} }

// peers returns the trust statements issued by a; empty for unknown or
// silent agents.
func (n Network) peers(a model.AgentID) []model.TrustStatement {
	ag := n.c.Agent(a)
	if ag == nil {
		return nil
	}
	return ag.TrustedPeers()
}

// Rank is one entry of a computed trust neighborhood: the peer and its
// continuous trust rank (metric-specific scale; only the ordering and
// relative magnitude matter downstream).
type Rank struct {
	Agent model.AgentID
	Trust float64
}

// Neighborhood is the ranked result of a local group trust computation for
// one source agent, sorted by descending trust (ties broken by agent ID).
type Neighborhood struct {
	Source model.AgentID
	Ranks  []Rank
	// Iterations is the number of passes the metric ran until convergence
	// (Appleseed) or levels explored (Advogato, PathTrust).
	Iterations int
	// Explored is the number of distinct agents whose trust statements
	// were fetched — the metric's network cost.
	Explored int
}

// sortRanks orders ranks by descending trust, then ID, in place.
func sortRanks(rs []Rank) {
	slices.SortFunc(rs, func(a, b Rank) int {
		switch {
		case a.Trust > b.Trust:
			return -1
		case a.Trust < b.Trust:
			return 1
		case a.Agent < b.Agent:
			return -1
		case a.Agent > b.Agent:
			return 1
		default:
			return 0
		}
	})
}

// Top returns the n highest-ranked peers (all if n <= 0 or beyond range).
func (nb *Neighborhood) Top(n int) []Rank {
	if n <= 0 || n >= len(nb.Ranks) {
		return nb.Ranks
	}
	return nb.Ranks[:n]
}

// RankOf returns the trust rank of peer and whether it is in range.
func (nb *Neighborhood) RankOf(peer model.AgentID) (float64, bool) {
	for _, r := range nb.Ranks {
		if r.Agent == peer {
			return r.Trust, true
		}
	}
	return 0, false
}

// Contains reports whether peer made it into the neighborhood.
func (nb *Neighborhood) Contains(peer model.AgentID) bool {
	_, ok := nb.RankOf(peer)
	return ok
}
