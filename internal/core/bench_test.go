package core

import (
	"fmt"
	"testing"

	"lcshortcut/internal/partition"
	"lcshortcut/internal/scenario"
	"lcshortcut/internal/tree"
)

// benchCase mirrors the S1 construction workload: a registry family at a
// given requested size, a sqrt(n)-seed Voronoi partition, and the BFS tree
// from vertex 0 — the exact shape cmd/experiments sweeps.
type benchCase struct {
	family string
	n      int
}

func benchInput(b *testing.B, bc benchCase) (*tree.Tree, *partition.Partition) {
	b.Helper()
	s := scenario.MustGet(bc.family)
	g := s.Build(bc.n, 1)
	seeds := 1
	for (seeds+1)*(seeds+1) <= g.NumNodes() {
		seeds++
	}
	p := partition.Voronoi(g, seeds, 2)
	return tree.BFSTree(g, 0), p
}

// BenchmarkFindShortcutAuto measures the full S1-style construction
// (Appendix A doubling driver) per family and size.
func BenchmarkFindShortcutAuto(b *testing.B) {
	cases := []benchCase{
		{"grid", 1024},
		{"er-dense", 1024},
		{"grid", 16384},
	}
	if !testing.Short() {
		cases = append(cases, benchCase{"er-sparse", 50000}, benchCase{"grid", 65536})
	}
	for _, bc := range cases {
		s := scenario.MustGet(bc.family)
		for _, w := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"par", 0}} {
			b.Run(fmt.Sprintf("%s-n%d/%s", bc.family, s.NumNodes(bc.n), w.name), func(b *testing.B) {
				tr, p := benchInput(b, bc)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := FindShortcutAuto(tr, p, 11, false, w.workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMeasure times the seal layer on its own: Seal(1) on an unsealed
// copy of a FindShortcutAuto result, which computes every part's blocks and
// diameter and the congestion. The copy is rebuilt outside the timer each
// iteration, because sealing a sealed shortcut is a no-op.
func BenchmarkMeasure(b *testing.B) {
	tr, p := benchInput(b, benchCase{"grid", 16384})
	ar, err := FindShortcutAuto(tr, p, 11, false, 1)
	if err != nil {
		b.Fatal(err)
	}
	want := ar.S.Measure()
	b.Run("grid-n16384", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cp := unsealedClone(ar.S)
			b.StartTimer()
			cp.Seal(1)
			if i == 0 && cp.Measure() != want {
				b.Fatalf("resealed copy measures %+v, the original %+v", cp.Measure(), want)
			}
		}
	})
}
