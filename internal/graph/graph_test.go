package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInterner(t *testing.T) {
	var in Interner
	a := in.Intern("alice")
	b := in.Intern("bob")
	if a == b {
		t.Fatal("distinct names got same index")
	}
	if got := in.Intern("alice"); got != a {
		t.Fatal("re-interning changed index")
	}
	if in.Name(a) != "alice" || in.Name(99) != "" {
		t.Fatal("Name mapping broken")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
}

func TestDigraphAddAndQuery(t *testing.T) {
	g := NewDigraph(0)
	g.AddEdge(0, 1, 0.5)
	g.AddEdge(0, 2, 0.8)
	g.AddEdge(2, 0, 1.0)
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if w, ok := g.Weight(0, 2); !ok || w != 0.8 {
		t.Fatalf("Weight(0,2) = %v,%v", w, ok)
	}
	// Overwrite keeps edge count stable.
	g.AddEdge(0, 2, 0.9)
	if g.NumEdges() != 3 {
		t.Fatal("overwriting an edge must not add a new one")
	}
	if w, _ := g.Weight(0, 2); w != 0.9 {
		t.Fatal("overwrite lost the new weight")
	}
	if _, ok := g.Weight(1, 0); ok {
		t.Fatal("phantom edge")
	}
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 0 {
		t.Fatal("OutDegree wrong")
	}
}

func TestReverse(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1, 0.5)
	g.AddEdge(1, 2, 0.7)
	r := g.Reverse()
	if w, ok := r.Weight(1, 0); !ok || w != 0.5 {
		t.Fatal("reverse edge missing")
	}
	if w, ok := r.Weight(2, 1); !ok || w != 0.7 {
		t.Fatal("reverse edge missing")
	}
	if _, ok := r.Weight(0, 1); ok {
		t.Fatal("forward edge leaked into reverse")
	}
}

func TestBFSDepthsAndHorizon(t *testing.T) {
	// Chain 0→1→2→3, plus shortcut 0→2.
	g := NewDigraph(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 2, 1)
	d := g.BFSDepths(0)
	want := []int{0, 1, 1, 2, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("depth[%d] = %d, want %d", i, d[i], want[i])
		}
	}
	r := g.ReachableWithin(0, 1)
	if len(r) != 2 || r[0] != 1 || r[1] != 2 {
		t.Fatalf("ReachableWithin(0,1) = %v", r)
	}
	if got := g.ReachableWithin(0, 0); len(got) != 3 {
		t.Fatalf("unlimited horizon = %v, want 3 nodes", got)
	}
}

func TestDegreeStats(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1) // reciprocal pair
	g.AddEdge(0, 2, 1)
	s := g.ComputeDegreeStats()
	if s.Min != 0 || s.Max != 2 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	if s.Isolated != 2 {
		t.Fatalf("Isolated = %d, want 2", s.Isolated)
	}
	if s.Reciprocal != 2 {
		t.Fatalf("Reciprocal = %d, want 2 (counted from both ends)", s.Reciprocal)
	}
	if s.Mean != 0.75 {
		t.Fatalf("Mean = %v, want 0.75", s.Mean)
	}
	if s.Gini <= 0 || s.Gini > 1 {
		t.Fatalf("Gini = %v, want in (0,1]", s.Gini)
	}
	// Uniform degrees → Gini 0.
	u := NewDigraph(3)
	u.AddEdge(0, 1, 1)
	u.AddEdge(1, 2, 1)
	u.AddEdge(2, 0, 1)
	if got := u.ComputeDegreeStats().Gini; got > 1e-9 {
		t.Fatalf("uniform Gini = %v, want 0", got)
	}
}

func TestMaxFlowTextbook(t *testing.T) {
	// Classic CLRS-style network, known max-flow 23.
	f := NewFlowNetwork(6)
	s, v1, v2, v3, v4, d := 0, 1, 2, 3, 4, 5
	f.AddArc(s, v1, 16)
	f.AddArc(s, v2, 13)
	f.AddArc(v1, v2, 10)
	f.AddArc(v2, v1, 4)
	f.AddArc(v1, v3, 12)
	f.AddArc(v3, v2, 9)
	f.AddArc(v2, v4, 14)
	f.AddArc(v4, v3, 7)
	f.AddArc(v3, d, 20)
	f.AddArc(v4, d, 4)
	if got := f.MaxFlow(s, d); got != 23 {
		t.Fatalf("MaxFlow = %d, want 23", got)
	}
}

func TestMaxFlowDisconnectedAndDegenerate(t *testing.T) {
	f := NewFlowNetwork(4)
	f.AddArc(0, 1, 5)
	f.AddArc(2, 3, 5)
	if got := f.MaxFlow(0, 3); got != 0 {
		t.Fatalf("disconnected flow = %d, want 0", got)
	}
	if got := f.MaxFlow(0, 0); got != 0 {
		t.Fatalf("self flow = %d, want 0", got)
	}
	if got := f.MaxFlow(-1, 3); got != 0 {
		t.Fatalf("invalid src flow = %d, want 0", got)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// Two wide arcs around a 1-unit bottleneck in series.
	f := NewFlowNetwork(4)
	f.AddArc(0, 1, 100)
	f.AddArc(1, 2, 1)
	f.AddArc(2, 3, 100)
	if got := f.MaxFlow(0, 3); got != 1 {
		t.Fatalf("MaxFlow = %d, want 1", got)
	}
	// Flow inspection: arc 1 (the bottleneck) carried exactly 1 unit.
	if got := f.Flow(1); got != 1 {
		t.Fatalf("Flow(bottleneck) = %d, want 1", got)
	}
}

func TestMaxFlowNegativeCapacityClamped(t *testing.T) {
	f := NewFlowNetwork(2)
	f.AddArc(0, 1, -5)
	if got := f.MaxFlow(0, 1); got != 0 {
		t.Fatalf("MaxFlow = %d, want 0", got)
	}
}

// Property: max-flow from s to t never exceeds the out-capacity of s or
// the in-capacity of t, and is non-negative.
func TestMaxFlowBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8
		fn := NewFlowNetwork(n)
		outCap, inCap := 0, 0
		for i := 0; i < 24; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			c := rng.Intn(10)
			fn.AddArc(a, b, c)
			if a == 0 {
				outCap += c
			}
			if b == n-1 {
				inCap += c
			}
		}
		got := fn.MaxFlow(0, n-1)
		return got >= 0 && got <= outCap && got <= inCap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: for a pure series chain, max-flow equals the minimum capacity.
func TestMaxFlowChainProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		fn := NewFlowNetwork(n)
		minCap := int(^uint(0) >> 1)
		for i := 0; i+1 < n; i++ {
			c := 1 + rng.Intn(20)
			fn.AddArc(i, i+1, c)
			if c < minCap {
				minCap = c
			}
		}
		return fn.MaxFlow(0, n-1) == minCap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
