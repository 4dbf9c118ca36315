package core

import (
	"fmt"
	"math/rand"
	"testing"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/scenario"
	"lcshortcut/internal/tree"
)

// allPairsDiameter is the oracle for graph.CSRDiameter: a BFS from every
// vertex of the CSR (off, to), returning the largest distance seen, or
// graph.Unreached if the graph is empty or disconnected.
func allPairsDiameter(off, to []int32) int {
	n := len(off) - 1
	if n <= 0 {
		return graph.Unreached
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	diam := 0
	for src := 0; src < n; src++ {
		for k := range dist {
			dist[k] = -1
		}
		queue = append(queue[:0], int32(src))
		dist[src] = 0
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range to[off[v]:off[v+1]] {
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		if len(queue) != n {
			return graph.Unreached
		}
		diam = max(diam, int(dist[queue[n-1]]))
	}
	return diam
}

// oraclePartDiameter is PartDiameter computed by all-pairs BFS over the same
// local CSR of G[P_i]+H_i.
func oraclePartDiameter(s *Shortcut, i int) int {
	qs := getQuery()
	defer putQuery(qs)
	s.partAdjacency(qs, i)
	return allPairsDiameter(qs.off, qs.to)
}

// checkPartDiameters compares every part's diameter on s against the
// all-pairs oracle and returns the number of parts checked.
func checkPartDiameters(t *testing.T, name string, s *Shortcut) int {
	t.Helper()
	for i := 0; i < s.Partition().NumParts(); i++ {
		if got, want := s.PartDiameter(i), oraclePartDiameter(s, i); got != want {
			t.Fatalf("%s: part %d diameter %d, all-pairs oracle %d", name, i, got, want)
		}
	}
	return s.Partition().NumParts()
}

// TestPartDiameterMatchesAllPairs holds the sealed part diameters of
// FindShortcutAuto's shortcuts to the all-pairs oracle on every registry
// family: ⌊√n⌋ Voronoi parts, BFS tree from vertex 0, three seeds per size.
func TestPartDiameterMatchesAllPairs(t *testing.T) {
	parts := 0
	for _, sc := range scenario.All() {
		for _, n := range []int{256, 1024, 2048} {
			for seed := int64(1); seed <= 3; seed++ {
				g := sc.Build(n, seed)
				seeds := 1
				for (seeds+1)*(seeds+1) <= g.NumNodes() {
					seeds++
				}
				p := partition.Voronoi(g, seeds, seed)
				ar, err := FindShortcutAuto(tree.BFSTree(g, 0), p, seed, false, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !ar.S.Sealed() {
					t.Fatal("FindShortcutAuto must return a sealed shortcut")
				}
				parts += checkPartDiameters(t, fmt.Sprintf("%s-n%d-s%d", sc.Name, n, seed), ar.S)
			}
		}
	}
	t.Logf("%d parts match the all-pairs oracle", parts)
}

// handShortcut builds an unsealed shortcut over g with the given per-vertex
// part assignment (partition.None for uncovered vertices), a BFS tree from
// vertex 0, and every tree edge on the listed tree paths assigned to part 0.
func handShortcut(t *testing.T, g *graph.Graph, assign []int, h0 [][2]graph.NodeID) *Shortcut {
	t.Helper()
	p, err := partition.FromAssignment(assign)
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.BFSTree(g, 0)
	s := NewShortcut(tr, p)
	for _, uv := range h0 {
		lca := tr.LCA(uv[0], uv[1])
		for _, x := range uv {
			for ; x != lca; x = tr.Parent(x) {
				s.Assign(tr.ParentEdge(x), 0)
			}
		}
	}
	return s
}

func whole(n int) []int { return make([]int, n) }

// TestPartDiameterEdgeCases pins the kernel's hand-checkable cases: a single
// vertex, paths (with and without Steiner vertices from H_i), odd and even
// cycles (iFUB's worst case: every vertex is central), a cycle closed only
// through H_i, and a disconnected part, which must read graph.Unreached.
func TestPartDiameterEdgeCases(t *testing.T) {
	none := partition.None
	cases := []struct {
		name   string
		g      *graph.Graph
		assign []int
		h0     [][2]graph.NodeID
		want   int
	}{
		{"single-vertex", gen.Path(1), whole(1), nil, 0},
		{"single-of-three", gen.Path(3), []int{none, 0, none}, nil, 0},
		{"path7", gen.Path(7), whole(7), nil, 6},
		{"path-ends-through-H", gen.Path(5), []int{0, none, none, none, 0}, [][2]graph.NodeID{{0, 4}}, 4},
		{"cycle3", gen.Ring(3), whole(3), nil, 1},
		{"cycle4", gen.Ring(4), whole(4), nil, 2},
		{"cycle9", gen.Ring(9), whole(9), nil, 4},
		{"cycle10", gen.Ring(10), whole(10), nil, 5},
		{"cycle101", gen.Ring(101), whole(101), nil, 50},
		{"cycle128", gen.Ring(128), whole(128), nil, 64},
		// Ring(10) with part {3..7} and H_0 = the tree path 3→0→7: the part's
		// arc plus the shortcut through vertices 0-2 and 8-9 closes a 10-cycle.
		{"cycle-closed-by-H", gen.Ring(10), []int{none, none, none, 0, 0, 0, 0, 0, none, none}, [][2]graph.NodeID{{3, 7}}, 5},
		{"disconnected", gen.Path(3), []int{0, none, 0}, nil, graph.Unreached},
		{"disconnected-cycle", gen.Ring(8), []int{0, 0, 0, none, 0, 0, 0, none}, nil, graph.Unreached},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := handShortcut(t, tc.g, tc.assign, tc.h0)
			if got := oraclePartDiameter(s, 0); got != tc.want {
				t.Fatalf("oracle reads %d, want %d — the hand case is wrong", got, tc.want)
			}
			if got := s.PartDiameter(0); got != tc.want {
				t.Errorf("unsealed PartDiameter = %d, want %d", got, tc.want)
			}
			s.Seal(1)
			if got := s.PartDiameter(0); got != tc.want {
				t.Errorf("sealed PartDiameter = %d, want %d", got, tc.want)
			}
		})
	}
}

// FuzzPartDiameter differentially tests the part-diameter search against the
// all-pairs oracle on random small graphs (a random tree plus random extra
// edges), random partial partitions (parts need not be connected) and random
// H_i assignments, unsealed and sealed.
func FuzzPartDiameter(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 20} {
		f.Add(seed, uint8(12), uint8(10), uint8(3))
	}
	f.Add(int64(7), uint8(1), uint8(0), uint8(1))
	f.Add(int64(9), uint8(40), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nodes, extra, parts uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nodes)%48
		b := graph.MustNewBuilder(n)
		for v := 1; v < n; v++ {
			b.MustAddEdge(v, rng.Intn(v), 1)
		}
		for k := 0; k < int(extra)%(2*n); k++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				b.AddEdge(u, v, 1) //nolint:errcheck // duplicates are skipped
			}
		}
		g := b.Finalize()
		nParts := 1 + int(parts)%min(n, 6)
		assign := make([]int, n)
		for v := range assign {
			assign[v] = partition.None
			if rng.Intn(4) > 0 {
				assign[v] = rng.Intn(nParts)
			}
		}
		for i := 0; i < nParts; i++ { // part indices must be dense
			assign[i] = i
		}
		p, err := partition.FromAssignment(assign)
		if err != nil {
			t.Fatal(err)
		}
		tr := tree.BFSTree(g, rng.Intn(n))
		s := NewShortcut(tr, p)
		for e := 0; e < g.NumEdges(); e++ {
			if !tr.IsTreeEdge(e) {
				continue
			}
			for i := 0; i < nParts; i++ {
				if rng.Intn(3) == 0 {
					s.Assign(e, i)
				}
			}
		}
		checkPartDiameters(t, "unsealed", s)
		s.Seal(1)
		checkPartDiameters(t, "sealed", s)
	})
}
