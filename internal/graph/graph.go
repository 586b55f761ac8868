// Package graph provides the directed-graph substrate the trust metrics
// are built on: a compact adjacency-list digraph with float64 edge weights,
// traversals, degree statistics, and an integer max-flow solver (Dinic's
// algorithm) for the Advogato group trust metric.
//
// Nodes are dense ints assigned by an Interner so callers can keep working
// with string agent IDs while the algorithms run over integer arrays.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Interner maps arbitrary string identifiers to dense node indices.
// The zero value is ready to use.
type Interner struct {
	ids   map[string]int
	names []string
}

// Reserve pre-sizes the table for n identifiers, avoiding growth
// reallocations when the caller knows the graph bound up front. A no-op
// once interning has started.
func (in *Interner) Reserve(n int) {
	if in.ids == nil && n > 0 {
		in.ids = make(map[string]int, n)
		in.names = make([]string, 0, n)
	}
}

// Intern returns the node index for name, assigning the next free index on
// first sight.
func (in *Interner) Intern(name string) int {
	if in.ids == nil {
		in.ids = make(map[string]int)
	}
	if id, ok := in.ids[name]; ok {
		return id
	}
	id := len(in.names)
	in.ids[name] = id
	in.names = append(in.names, name)
	return id
}

// Name returns the string identifier of node id.
func (in *Interner) Name(id int) string {
	if id < 0 || id >= len(in.names) {
		return ""
	}
	return in.names[id]
}

// Len returns the number of interned identifiers.
func (in *Interner) Len() int { return len(in.names) }

// Edge is one weighted arc.
type Edge struct {
	To     int
	Weight float64
}

// Digraph is a weighted directed graph over dense node indices. Adding an
// edge with an endpoint beyond the current size grows the graph.
type Digraph struct {
	adj   [][]Edge
	edges int
}

// NewDigraph creates a digraph with capacity for n nodes.
func NewDigraph(n int) *Digraph {
	return &Digraph{adj: make([][]Edge, n)}
}

// ensure grows the adjacency table to cover node v.
func (g *Digraph) ensure(v int) {
	for len(g.adj) <= v {
		g.adj = append(g.adj, nil)
	}
}

// AddEdge inserts the arc from→to with the given weight. Parallel arcs are
// collapsed: re-adding an existing arc overwrites its weight.
func (g *Digraph) AddEdge(from, to int, w float64) {
	if from < 0 || to < 0 {
		panic(fmt.Sprintf("graph: negative node index %d->%d", from, to))
	}
	g.ensure(from)
	g.ensure(to)
	for i := range g.adj[from] {
		if g.adj[from][i].To == to {
			g.adj[from][i].Weight = w
			return
		}
	}
	g.adj[from] = append(g.adj[from], Edge{To: to, Weight: w})
	g.edges++
}

// NumNodes returns the size of the node index space.
func (g *Digraph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of distinct arcs.
func (g *Digraph) NumEdges() int { return g.edges }

// Out returns the out-edges of v. The slice must not be modified.
func (g *Digraph) Out(v int) []Edge {
	if v < 0 || v >= len(g.adj) {
		return nil
	}
	return g.adj[v]
}

// Weight returns the arc weight from→to; ok is false if the arc is absent.
func (g *Digraph) Weight(from, to int) (float64, bool) {
	for _, e := range g.Out(from) {
		if e.To == to {
			return e.Weight, true
		}
	}
	return 0, false
}

// OutDegree returns the out-degree of v.
func (g *Digraph) OutDegree(v int) int { return len(g.Out(v)) }

// Reverse returns the transpose graph (all arcs flipped).
func (g *Digraph) Reverse() *Digraph {
	r := NewDigraph(len(g.adj))
	for from, es := range g.adj {
		for _, e := range es {
			r.AddEdge(e.To, from, e.Weight)
		}
	}
	return r
}

// BFSDepths returns the minimum hop distance from src to every reachable
// node; unreachable nodes map to -1. Used to bound trust horizons.
func (g *Digraph) BFSDepths(src int) []int {
	depth := make([]int, len(g.adj))
	for i := range depth {
		depth[i] = -1
	}
	if src < 0 || src >= len(g.adj) {
		return depth
	}
	depth[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[v] {
			if depth[e.To] == -1 {
				depth[e.To] = depth[v] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return depth
}

// ReachableWithin returns the nodes at BFS distance 1..horizon from src
// (excluding src), sorted ascending. horizon <= 0 means unlimited.
func (g *Digraph) ReachableWithin(src, horizon int) []int {
	depths := g.BFSDepths(src)
	var out []int
	for v, d := range depths {
		if v == src || d < 0 {
			continue
		}
		if horizon > 0 && d > horizon {
			continue
		}
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// DegreeStats summarizes the out-degree distribution; datagen validation
// uses it to confirm the synthetic trust graph is scale-free-ish.
type DegreeStats struct {
	Min, Max   int
	Mean       float64
	Gini       float64 // inequality of the degree distribution, 0..1
	Isolated   int     // nodes with no out-edges
	Reciprocal int     // arcs whose reverse also exists
}

// ComputeDegreeStats scans the graph once and returns degree statistics.
func (g *Digraph) ComputeDegreeStats() DegreeStats {
	n := len(g.adj)
	s := DegreeStats{Min: math.MaxInt}
	if n == 0 {
		s.Min = 0
		return s
	}
	degs := make([]int, n)
	total := 0
	for v := range g.adj {
		d := len(g.adj[v])
		degs[v] = d
		total += d
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
		if d == 0 {
			s.Isolated++
		}
		for _, e := range g.adj[v] {
			if _, ok := g.Weight(e.To, v); ok {
				s.Reciprocal++
			}
		}
	}
	s.Mean = float64(total) / float64(n)
	// Gini over the sorted degree sequence.
	sort.Ints(degs)
	var cum, weighted float64
	for i, d := range degs {
		weighted += float64(d) * float64(i+1)
		cum += float64(d)
	}
	if cum > 0 {
		s.Gini = (2*weighted)/(float64(n)*cum) - float64(n+1)/float64(n)
	}
	return s
}
