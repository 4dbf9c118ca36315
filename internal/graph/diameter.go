package graph

// DiameterScratch holds the working buffers of CSRDiameter. The zero value
// is ready to use; it grows to the largest graph it has served and is not
// safe for concurrent use.
type DiameterScratch struct {
	// dist[v] is 1 + the current sweep's distance to v, 0 if unreached. It
	// is all zero between sweeps, so fresh growth needs no fill.
	dist  []int32
	queue []int32 // BFS queue of the current sweep
	order []int32 // the central vertex's BFS order: vertices by level
	level []int32 // level[i]: index in order where level i starts
	ub    []int32 // ub[x]: min over swept w of ecc(w)+d(w,x) ≥ ecc(x)
}

// grow sizes the buffers for an n-vertex graph.
func (ds *DiameterScratch) grow(n int) {
	if cap(ds.dist) < n {
		ds.dist = make([]int32, n)
		ds.queue = make([]int32, n)
		ds.order = make([]int32, n)
		ds.ub = make([]int32, n)
	}
	ds.dist = ds.dist[:n]
	ds.queue = ds.queue[:n]
	ds.order = ds.order[:n]
	ds.ub = ds.ub[:n]
}

// CSRDiameter returns the exact hop diameter of the undirected graph whose
// adjacency is the CSR pair (off, to): vertices are [0, len(off)-1), and the
// neighbors of v are to[off[v]:off[v+1]], every edge listed from both ends.
// It returns Unreached if the graph has no vertex or is disconnected.
// Steady-state calls on a reused ds are allocation-free.
func CSRDiameter(off, to []int32, ds *DiameterScratch) int {
	n := len(off) - 1
	if n <= 0 {
		return Unreached
	}
	d, size := ds.component(off, to, 0)
	if size != n {
		return Unreached
	}
	return d
}

// component returns the exact diameter of src's connected component and the
// component's vertex count; afterwards ds.order[:size] lists the component's
// vertices.
//
// The search is iFUB (Crescenzi et al., "On computing the diameter of
// real-world undirected graphs", TCS 2013) with the eccentricity upper-bound
// pruning of Takes and Kosters' BoundingDiameters. A double sweep from src
// gives a lower bound lb and a central vertex u halfway along the swept
// path; a sweep from u, and from the vertex with the smallest eccentricity
// bound if that is lower than ecc(u), keeps the more central of the two as
// u. The levels of u's BFS are then walked from the deepest up, sweeping
// from each vertex x on the level. Before level i, every pair with an
// endpoint deeper than level i is covered and every other pair is at most 2i
// apart, so the search stops once lb ≥ 2i. Every sweep from w also tightens
// ub[x] = min ecc(w)+d(w,x), an upper bound on ecc(x) by the triangle
// inequality, and x is skipped when ub[x] ≤ lb. The pruning is what keeps
// cycle-like graphs — radius close to the diameter, iFUB's worst case —
// down to a few sweeps instead of one per vertex.
func (ds *DiameterScratch) component(off, to []int32, src int32) (diam, size int) {
	ds.grow(len(off) - 1)
	ecc, size := ds.bfs(off, to, src)
	a := ds.queue[size-1]
	ds.bound(ds.queue[:size], ecc, true)
	ds.reset(size)
	lb := ecc

	// Second sweep, from the far end a; then walk back from its far end b to
	// the midpoint of the a–b shortest path, the central vertex u.
	ecc, _ = ds.bfs(off, to, a)
	lb = max(lb, ecc)
	u := ds.queue[size-1]
	for ds.dist[u] > ecc/2+1 {
		for _, w := range to[off[u]:off[u+1]] {
			if ds.dist[w] == ds.dist[u]-1 {
				u = w
				break
			}
		}
	}
	ds.bound(ds.queue[:size], ecc, false)
	ds.reset(size)

	// Third sweep, from u: keep its BFS order and level boundaries.
	ecc, _ = ds.bfs(off, to, u)
	lb = max(lb, ecc)
	ds.keepLevels(size, ecc)
	ds.bound(ds.queue[:size], ecc, false)
	ds.reset(size)

	// One refinement step: a vertex whose eccentricity bound is below
	// ecc(u) may be more central than the midpoint, and the fewer levels
	// lie above lb/2, the fewer vertices the walk must cover.
	c := u
	for _, x := range ds.order[:size] {
		if ds.ub[x] < ds.ub[c] {
			c = x
		}
	}
	if c != u {
		e, _ := ds.bfs(off, to, c)
		lb = max(lb, e)
		if e < ecc {
			ecc = e
			ds.keepLevels(size, ecc)
		}
		ds.bound(ds.queue[:size], e, false)
		ds.reset(size)
	}

	for i := ecc; i >= 1 && lb < 2*i; i-- {
		for _, x := range ds.order[ds.level[i]:ds.level[i+1]] {
			if ds.ub[x] <= lb {
				continue
			}
			e, _ := ds.bfs(off, to, x)
			if lb = max(lb, e); lb >= 2*i {
				ds.reset(size)
				break
			}
			// Only the levels still to be walked, lb/2+1 through i, read
			// their bounds again.
			ds.bound(ds.order[ds.level[lb/2+1]:ds.level[i+1]], e, false)
			ds.reset(size)
		}
	}
	return int(lb), size
}

// keepLevels records the finished sweep's BFS order, of size vertices, and
// its level boundaries up to eccentricity ecc as the walk's levels.
func (ds *DiameterScratch) keepLevels(size int, ecc int32) {
	copy(ds.order, ds.queue[:size])
	if cap(ds.level) < int(ecc)+2 {
		ds.level = make([]int32, ecc+2)
	}
	ds.level = ds.level[:ecc+2]
	for k := size - 1; k >= 0; k-- {
		ds.level[ds.dist[ds.order[k]]-1] = int32(k)
	}
	ds.level[ecc+1] = int32(size)
}

// bfs sweeps from src over the CSR, leaving the distances in ds.dist and the
// visit order in ds.queue[:size]. It returns src's eccentricity and the
// number of vertices reached; the last queued vertex is a farthest one.
func (ds *DiameterScratch) bfs(off, to []int32, src int32) (ecc int32, size int) {
	dist, queue := ds.dist, ds.queue
	dist[src] = 1
	queue[0] = src
	head, tail := 0, 1
	for head < tail {
		v := queue[head]
		head++
		d := dist[v] + 1
		for _, w := range to[off[v]:off[v+1]] {
			if dist[w] == 0 {
				dist[w] = d
				queue[tail] = w
				tail++
			}
		}
	}
	return dist[queue[tail-1]] - 1, tail
}

// bound folds the finished sweep of eccentricity ecc into the upper bounds of
// the vertices xs: ub[x] = ecc+d(src,x) if init, else the smaller of that and
// ub[x].
func (ds *DiameterScratch) bound(xs []int32, ecc int32, init bool) {
	ecc-- // dist holds distance+1
	for _, x := range xs {
		if b := ecc + ds.dist[x]; init || b < ds.ub[x] {
			ds.ub[x] = b
		}
	}
}

// reset un-sets the distances of a sweep that reached size vertices: a
// sweep over the whole graph clears the buffer outright, any other through
// its queue.
func (ds *DiameterScratch) reset(size int) {
	if size == len(ds.dist) {
		clear(ds.dist)
		return
	}
	for _, x := range ds.queue[:size] {
		ds.dist[x] = 0
	}
}
