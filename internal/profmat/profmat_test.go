package profmat

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/sparse"
)

const dims = 256

// randVector draws a sparse vector over [0,dims) with nnz entries;
// values are quantized so cross-vector ties and exact overlaps occur.
func randVector(rng *rand.Rand, nnz int) sparse.Vector {
	v := sparse.New(nnz)
	for i := 0; i < nnz; i++ {
		v.Add(int32(rng.Intn(dims)), float64(rng.Intn(21)-10)/4)
	}
	return v
}

// fromVector compiles a single sparse vector into a standalone row —
// the bridge from the sparse oracle to the compiled kernels.
func fromVector(v sparse.Vector) Row {
	es := v.Entries()
	r := Row{
		Keys: make([]int32, len(es)),
		Vals: make([]float64, len(es)),
	}
	var norm2 float64
	for i, e := range es {
		r.Keys[i] = e.Key
		r.Vals[i] = e.Value
		norm2 += e.Value * e.Value
		r.Sum += e.Value
	}
	r.Norm = math.Sqrt(norm2)
	return r
}

// TestKernelsMatchSparseDifferential is the differential property test:
// for random (and degenerate) vector pairs, the compiled merge-join
// kernels must agree with the map-based sparse kernels — exactly on the
// ok flag, within 1e-12 on the similarity.
func TestKernelsMatchSparseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pairs := make([][2]sparse.Vector, 0, 300)
	for i := 0; i < 280; i++ {
		pairs = append(pairs, [2]sparse.Vector{
			randVector(rng, rng.Intn(60)),
			randVector(rng, rng.Intn(60)),
		})
	}
	// Degenerate shapes: empty vs empty, empty vs dense, identical,
	// single-dimension overlap, explicit-zero entries (zero norm), and
	// constant vectors (zero Pearson variance).
	empty := sparse.New(0)
	one := sparse.New(1)
	one.Add(7, 3)
	zeroed := sparse.New(2)
	zeroed.Add(3, 0)
	zeroed.Add(9, 0)
	flat := sparse.New(3)
	flat.Add(1, 2)
	flat.Add(5, 2)
	flat.Add(9, 2)
	shared := randVector(rng, 30)
	pairs = append(pairs,
		[2]sparse.Vector{empty, empty},
		[2]sparse.Vector{empty, shared},
		[2]sparse.Vector{shared, shared.Clone()},
		[2]sparse.Vector{one, one.Clone()},
		[2]sparse.Vector{one, shared},
		[2]sparse.Vector{zeroed, shared},
		[2]sparse.Vector{zeroed, zeroed.Clone()},
		[2]sparse.Vector{flat, flat.Clone()},
		[2]sparse.Vector{flat, shared},
	)

	for i, p := range pairs {
		ra, rb := fromVector(p[0]), fromVector(p[1])
		if dot, want := Dot(&ra, &rb), sparse.Dot(p[0], p[1]); !close12(dot, want) {
			t.Fatalf("pair %d: Dot = %v, sparse %v", i, dot, want)
		}
		if ov, want := Overlap(&ra, &rb), sparse.Overlap(p[0], p[1]); ov != want {
			t.Fatalf("pair %d: Overlap = %d, sparse %d", i, ov, want)
		}
		cs, csOK := Cosine(&ra, &rb)
		wcs, wcsOK := sparse.Cosine(p[0], p[1])
		if csOK != wcsOK || !close12(cs, wcs) {
			t.Fatalf("pair %d: Cosine = (%v,%v), sparse (%v,%v)", i, cs, csOK, wcs, wcsOK)
		}
		pe, peOK := Pearson(&ra, &rb)
		wpe, wpeOK := sparse.Pearson(p[0], p[1])
		if peOK != wpeOK || !close12(pe, wpe) {
			t.Fatalf("pair %d: Pearson = (%v,%v), sparse (%v,%v)", i, pe, peOK, wpe, wpeOK)
		}
	}
}

// close12 tolerates 1e-12 absolute or relative: sparse.Vector aggregates
// accumulate in map-iteration order, so for magnitudes ≫ 1 the run-to-run
// wobble scales with the value, not with an absolute constant.
func close12(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-12 || d <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// TestScratchMatchesMergeJoinExactly pins the dense-scatter batch
// kernels to the merge-join ones bit for bit: Load + CosineTo/PearsonTo
// accumulate the same products in the same ascending-dimension order, so
// no tolerance is needed or granted.
func TestScratchMatchesMergeJoinExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sc := NewScratch(dims)
	for i := 0; i < 200; i++ {
		a := fromVector(randVector(rng, rng.Intn(80)))
		sc.Load(&a)
		for j := 0; j < 5; j++ {
			b := fromVector(randVector(rng, rng.Intn(80)))
			cs, csOK := sc.CosineTo(&b)
			wcs, wcsOK := Cosine(&a, &b)
			if cs != wcs || csOK != wcsOK {
				t.Fatalf("CosineTo = (%v,%v), merge-join (%v,%v)", cs, csOK, wcs, wcsOK)
			}
			pe, peOK := sc.PearsonTo(&b)
			wpe, wpeOK := Pearson(&a, &b)
			if pe != wpe || peOK != wpeOK {
				t.Fatalf("PearsonTo = (%v,%v), merge-join (%v,%v)", pe, peOK, wpe, wpeOK)
			}
		}
	}
}

func benchCommunity(t testing.TB) *model.Community {
	t.Helper()
	cfg := datagen.SmallScale()
	cfg.Agents = 60
	cfg.Products = 120
	comm, _ := datagen.Generate(cfg)
	return comm
}

// TestBuildMatchesGeneratorProfiles checks the compiled rows against the
// map-based profile generator they claim to mirror: same dimensions,
// bit-identical scores (the dense accumulation replays the generator's
// exact increment stream), and consistent norm/sum aggregates.
func TestBuildMatchesGeneratorProfiles(t *testing.T) {
	comm := benchCommunity(t)
	gen := profile.New(comm.Taxonomy())
	mat, err := Build(context.Background(), comm, gen, comm.Taxonomy().Len(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Len() != comm.NumAgents() || mat.Built() != comm.NumAgents() {
		t.Fatalf("matrix len=%d built=%d, want %d", mat.Len(), mat.Built(), comm.NumAgents())
	}
	for _, id := range comm.Agents() {
		row := mat.Row(comm.Agent(id).Ord())
		if row == nil {
			t.Fatalf("agent %s missing from matrix", id)
		}
		want := gen.Profile(comm.Agent(id), comm).Entries()
		if len(want) != row.NNZ() {
			t.Fatalf("agent %s: nnz %d, generator %d", id, row.NNZ(), len(want))
		}
		for i, e := range want {
			if row.Keys[i] != e.Key || row.Vals[i] != e.Value {
				t.Fatalf("agent %s dim %d: (%d,%v), generator (%d,%v)",
					id, i, row.Keys[i], row.Vals[i], e.Key, e.Value)
			}
		}
		v := sparse.New(row.NNZ())
		for i, k := range row.Keys {
			v.Add(k, row.Vals[i])
		}
		if !close12(row.Norm, v.Norm()) || !close12(row.Sum, v.Sum()) {
			t.Fatalf("agent %s: norm/sum (%v,%v) vs (%v,%v)", id, row.Norm, row.Sum, v.Norm(), v.Sum())
		}
	}
}

// TestBuildProductRowsMatchRatingVectors checks the Product rows (nil
// generator) against the map-based rating vectors they replace: one
// dimension per catalog ordinal, the rating bit-for-bit as its value,
// and similarities that agree with the sparse oracle on the ok flag and
// within 1e-12 on the value.
func TestBuildProductRowsMatchRatingVectors(t *testing.T) {
	comm := benchCommunity(t)
	mat, err := Build(context.Background(), comm, nil, comm.NumProducts(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Len() != comm.NumAgents() {
		t.Fatalf("matrix len=%d, want %d", mat.Len(), comm.NumAgents())
	}
	ord := func(p model.ProductID) int32 { return comm.Product(p).Ord() }
	ids := comm.Agents()
	vecs := make([]sparse.Vector, len(ids))
	for i, id := range ids {
		vecs[i] = profile.ProductVector(comm.Agent(id), ord)
		row := mat.Row(comm.Agent(id).Ord())
		want := vecs[i].Entries()
		if len(want) != row.NNZ() {
			t.Fatalf("agent %s: nnz %d, rating vector %d", id, row.NNZ(), len(want))
		}
		for j, e := range want {
			if row.Keys[j] != e.Key || row.Vals[j] != e.Value {
				t.Fatalf("agent %s dim %d: (%d,%v), rating vector (%d,%v)", id, j, row.Keys[j], row.Vals[j], e.Key, e.Value)
			}
		}
	}
	for i := range ids {
		for j := range ids {
			a, b := mat.Row(int32(i)), mat.Row(int32(j))
			pe, peOK := Pearson(a, b)
			wpe, wpeOK := sparse.Pearson(vecs[i], vecs[j])
			cs, csOK := Cosine(a, b)
			wcs, wcsOK := sparse.Cosine(vecs[i], vecs[j])
			if peOK != wpeOK || !close12(pe, wpe) || csOK != wcsOK || !close12(cs, wcs) {
				t.Fatalf("agents %d,%d: pearson (%v,%v) vs (%v,%v), cosine (%v,%v) vs (%v,%v)",
					i, j, pe, peOK, wpe, wpeOK, cs, csOK, wcs, wcsOK)
			}
		}
	}
}

// TestBuildDeltaCarriesCleanRows pins the epoch-swap fast path: rows of
// clean agents are carried into the new matrix by value (aliasing the
// previous arenas), and only dirty agents are recompiled.
func TestBuildDeltaCarriesCleanRows(t *testing.T) {
	comm := benchCommunity(t)
	gen := profile.New(comm.Taxonomy())
	tlen := comm.Taxonomy().Len()
	prev, err := Build(context.Background(), comm, gen, tlen, 0)
	if err != nil {
		t.Fatal(err)
	}
	dirtyID := comm.Agents()[5]
	dirtyOrd := comm.Agent(dirtyID).Ord()
	next, err := BuildDelta(context.Background(), comm, gen, tlen, 0, prev,
		func(ord int32) bool { return ord == dirtyOrd })
	if err != nil {
		t.Fatal(err)
	}
	if next.Built() != 1 {
		t.Fatalf("Built = %d, want 1", next.Built())
	}
	for _, id := range comm.Agents() {
		ord := comm.Agent(id).Ord()
		pr, nr := prev.Row(ord), next.Row(ord)
		if nr.NNZ() != pr.NNZ() {
			t.Fatalf("agent %s: nnz changed %d -> %d", id, pr.NNZ(), nr.NNZ())
		}
		for i := range nr.Keys {
			if nr.Keys[i] != pr.Keys[i] || nr.Vals[i] != pr.Vals[i] {
				t.Fatalf("agent %s: entry %d differs after delta build", id, i)
			}
		}
		carried := pr.NNZ() > 0 && nr.NNZ() > 0 && &pr.Vals[0] == &nr.Vals[0]
		if id == dirtyID && carried {
			t.Fatalf("dirty agent %s aliases the previous arena", id)
		}
		if id != dirtyID && pr.NNZ() > 0 && !carried {
			t.Fatalf("clean agent %s was recompiled", id)
		}
	}
}

// TestBuildDeterministicAcrossWorkerCounts: the compiled contents must
// not depend on parallelism.
func TestBuildDeterministicAcrossWorkerCounts(t *testing.T) {
	comm := benchCommunity(t)
	gen := profile.New(comm.Taxonomy())
	tlen := comm.Taxonomy().Len()
	base, err := Build(context.Background(), comm, gen, tlen, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		m, err := Build(context.Background(), comm, gen, tlen, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range comm.Agents() {
			ord := comm.Agent(id).Ord()
			a, b := base.Row(ord), m.Row(ord)
			if a.NNZ() != b.NNZ() || a.Norm != b.Norm || a.Sum != b.Sum {
				t.Fatalf("workers=%d agent %s: row differs", workers, id)
			}
			for i := range a.Keys {
				if a.Keys[i] != b.Keys[i] || a.Vals[i] != b.Vals[i] {
					t.Fatalf("workers=%d agent %s entry %d differs", workers, id, i)
				}
			}
		}
	}
}
