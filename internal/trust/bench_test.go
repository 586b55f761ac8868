package trust

import (
	"fmt"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/model"
)

func benchTrustCommunity(b *testing.B, agents int) *model.Community {
	b.Helper()
	cfg := datagen.SmallScale()
	cfg.Agents = agents
	cfg.Products = agents * 2
	comm, _ := datagen.Generate(cfg)
	return comm
}

// BenchmarkAppleseedRefs measures one full Appleseed computation: node
// discovery and edge traversal index a flat ordinal table.
func BenchmarkAppleseedRefs(b *testing.B) {
	for _, agents := range []int{100, 400} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			comm := benchTrustCommunity(b, agents)
			net := FromCommunity(comm)
			src := comm.Agents()[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Appleseed(net, src, AppleseedOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPathTrust measures the scalar baseline's best-chain search.
func BenchmarkPathTrust(b *testing.B) {
	comm := benchTrustCommunity(b, 400)
	net := FromCommunity(comm)
	src := comm.Agents()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PathTrust(net, src, PathTrustOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWidenOneHop measures the ladder's rung-2 horizon widening.
func BenchmarkWidenOneHop(b *testing.B) {
	comm := benchTrustCommunity(b, 400)
	net := FromCommunity(comm)
	src := comm.Agents()[0]
	nb, err := Appleseed(net, src, AppleseedOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WidenOneHop(net, nb, 0.5)
	}
}
