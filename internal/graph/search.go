package graph

import "math"

// Infinity is the distance reported for unreachable vertices.
var Infinity = math.Inf(1)

// SSSP holds a single-source shortest-path tree: distances, tree parents and
// the first hop of a shortest path from the source to every vertex.
//
// Ties between equal-length paths are broken deterministically: the tree
// equals that of a search finalizing vertices in (dist, id) order, where each
// vertex takes its parent from the first tight predecessor finalized, so two
// runs over the same graph always produce the same tree. On weighted graphs
// the kernel that produces it is a radix-queue Dijkstra with the tie-break
// in its relax step (dijkstraInto); on unit graphs it is a BFS in port order.
type SSSP struct {
	Source Vertex
	Dist   []float64
	Parent []Vertex // Parent[Source] == NoVertex
	First  []Vertex // first vertex after Source on a shortest path; First[Source] == Source
}

// ShortestPaths computes single-source shortest paths from src, using BFS on
// unit-weight graphs and Dijkstra otherwise. The returned slices are fresh;
// all search scratch comes from the graph's workspace pool.
func (g *Graph) ShortestPaths(src Vertex) *SSSP {
	n := g.N()
	s := &SSSP{
		Source: src,
		Dist:   make([]float64, n),
		Parent: make([]Vertex, n),
		First:  make([]Vertex, n),
	}
	ws := g.AcquireWorkspace()
	g.searchInto(ws, src, s.Dist, s.Parent, s.First)
	g.ReleaseWorkspace(ws)
	return s
}

// searchInto runs the full single-source search from src, writing distances,
// first hops and (when non-nil) tree parents into the caller's slices - the
// allocation-free core shared by ShortestPaths, AllPairs and the LazyAPSP
// row fill. All transient state (radix queue, heap, BFS queue) lives in ws.
func (g *Graph) searchInto(ws *Workspace, src Vertex, dist []float64, parent, first []Vertex) {
	initRow(src, dist, parent, first)
	if g.unit {
		g.bfsInto(ws, src, dist, parent, first)
	} else {
		g.dijkstraInto(ws, src, dist, parent, first)
	}
}

// initRow sets a row to the start state of a search from src: everything
// unreachable and parentless except src itself.
func initRow(src Vertex, dist []float64, parent, first []Vertex) {
	for i := range dist {
		dist[i] = Infinity
	}
	for i := range first {
		first[i] = NoVertex
	}
	if parent != nil {
		for i := range parent {
			parent[i] = NoVertex
		}
	}
	dist[src] = 0
	first[src] = src
}

// bfsInto is the unit-weight search. The frontier lives in the workspace's
// preallocated queue, drained by a head index that never wraps (at most n
// vertices are ever enqueued), so the whole search performs no queue
// reallocation (the old queue = queue[1:] idiom shrank the backing array's
// capacity with every dequeue and forced append to reallocate mid-search).
func (g *Graph) bfsInto(ws *Workspace, src Vertex, dist []float64, parent, first []Vertex) {
	q := append(ws.queue[:0], src)
	for head := 0; head < len(q); head++ {
		u := q[head]
		du := dist[u] + 1
		fu := first[u]
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := g.to[i]
			if first[v] != NoVertex { // discovered (first[src] == src)
				continue
			}
			dist[v] = du
			if parent != nil {
				parent[v] = u
			}
			if u == src {
				first[v] = v
			} else {
				first[v] = fu
			}
			q = append(q, v)
		}
	}
}

// dijkstraInto is the weighted search. It runs over the workspace's monotone
// radix queue, which pops in distance order only, and restores the canonical
// tie-break in the relax step instead: when a relaxation ties v's label, the
// predecessor with the smaller (dist, id) takes parent[v] and first[v]. Edge
// weights are positive, so every tight predecessor of v settles (strictly
// closer) before v does, and v ends up with the predecessor a (dist, id)-order
// search would have finalized first - the rows are bit-identical to
// dijkstraHeapInto's. The one exception is a weight absorbed by rounding,
// fl(d + w) == d, which ties a vertex with its predecessor; the radix pass
// detects it and the row is recomputed by dijkstraHeapInto.
func (g *Graph) dijkstraInto(ws *Workspace, src Vertex, dist []float64, parent, first []Vertex) {
	if g.radixInto(ws, src, dist, parent, first) {
		return
	}
	initRow(src, dist, parent, first)
	g.dijkstraHeapInto(ws, src, dist, parent, first)
}

// radixInto is the radix-queue pass of dijkstraInto. It reports false,
// leaving the row partly filled, as soon as a relaxation meets an absorbed
// weight. Without a caller parent slice the workspace's parent array holds
// the tie-break parents; the labels are invalidated first, so the scratch
// writes never leak into a later workspace search. Parents are read only
// for vertices already labeled in this search, so the scratch needs no
// clearing.
func (g *Graph) radixInto(ws *Workspace, src Vertex, dist []float64, parent, first []Vertex) bool {
	par := parent
	if par == nil {
		ws.Reset()
		par = ws.parent
	}
	q := &ws.radix
	q.reset()
	q.push(0, src)
	for q.len() > 0 {
		key, u := q.pop()
		d := math.Float64frombits(key)
		if d != dist[u] {
			continue // superseded by a shorter relaxation
		}
		fu := first[u]
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := g.to[i]
			nd := d + g.w[i]
			dv := dist[v]
			if !(nd <= dv) { // also skips a NaN sum, as the heap's nd < dv does
				continue
			}
			if nd == d {
				return false // weight absorbed by rounding
			}
			if nd == dv {
				// Tie. An infinite sum (overflow) ties only unlabeled v.
				// Otherwise the current parent settled no later than u, so
				// it keeps v unless it sits at u's distance with a larger id.
				if p := par[v]; dv == Infinity || dist[p] != d || p < u {
					continue
				}
			} else {
				dist[v] = nd
				q.push(math.Float64bits(nd), v)
			}
			par[v] = u
			if u == src {
				first[v] = v
			} else {
				first[v] = fu
			}
		}
	}
	return true
}

// dijkstraHeapInto is the (dist, id)-order search: a lazy-deletion Dijkstra
// over the workspace's 4-ary heap. Stale heap entries are recognized by
// distance mismatch (relaxations are strict improvements, so a popped entry
// matching its label is the finalizing pop). The first tight predecessor in
// pop order labels each vertex, which defines the canonical rows; it is the
// fallback of dijkstraInto for absorbed weights and the reference the radix
// pass is tested against.
func (g *Graph) dijkstraHeapInto(ws *Workspace, src Vertex, dist []float64, parent, first []Vertex) {
	h := &ws.heap
	h.reset()
	h.push(0, src)
	for h.len() > 0 {
		d, u := h.pop()
		if d != dist[u] {
			continue // superseded by a shorter relaxation
		}
		fu := first[u]
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := g.to[i]
			nd := d + g.w[i]
			if nd < dist[v] {
				dist[v] = nd
				if parent != nil {
					parent[v] = u
				}
				if u == src {
					first[v] = v
				} else {
					first[v] = fu
				}
				h.push(nd, v)
			}
		}
	}
}

// Path reconstructs the tree path from the source to v, inclusive on both
// ends. It returns nil if v is unreachable.
func (s *SSSP) Path(v Vertex) []Vertex {
	if math.IsInf(s.Dist[v], 1) {
		return nil
	}
	var rev []Vertex
	for x := v; x != NoVertex; x = s.Parent[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// NearestResult is one finalized vertex of a truncated search, in
// non-decreasing (dist, id) order from the source.
type NearestResult struct {
	V      Vertex
	Dist   float64
	Parent Vertex // NoVertex for the source itself
}

// Nearest runs a truncated shortest-path search from src and returns every
// vertex whose distance is at most that of the k-th closest vertex, sorted by
// (dist, id). The result therefore contains at least min(k, reachable)
// vertices and closes out whole distance classes, which lets callers apply
// the paper's lexicographic tie-break exactly (B(u, l) in Section 2).
func (g *Graph) Nearest(src Vertex, k int) []NearestResult {
	if k <= 0 {
		return nil
	}
	return g.AppendNearest(nil, src, k)
}

// AppendNearest is Nearest appending into out, the steady-state form for
// callers that recycle their result buffer: with a warm buffer and workspace
// pool the truncated search performs no allocations. k <= 0 returns out
// unchanged.
func (g *Graph) AppendNearest(out []NearestResult, src Vertex, k int) []NearestResult {
	if k <= 0 {
		return out
	}
	base := len(out)
	ws := g.AcquireWorkspace()
	ws.Start(src)
	cutoff := Infinity
	count := 0
	for {
		v, d, ok := ws.Pop()
		if !ok {
			break
		}
		// Once k vertices are finalized, keep going only while the popped
		// distance still equals the distance of the k-th vertex, so the
		// final distance class is complete.
		if count >= k && d > cutoff {
			break
		}
		out = append(out, NearestResult{V: v, Dist: d, Parent: ws.Parent(v)})
		count++
		if count == k {
			cutoff = d
		}
		for i := g.off[v]; i < g.off[v+1]; i++ {
			ws.Relax(g.to[i], d+g.w[i], v)
		}
	}
	g.ReleaseWorkspace(ws)
	// The heap pops by (dist, id), but a vertex can be *discovered* late:
	// within the final distance class the pop order may interleave ids, so
	// re-sort to get the exact lexicographic order the paper requires.
	sortNearest(out[base:])
	return out
}

func sortNearest(rs []NearestResult) {
	// Insertion-style sort is fine: the slice is already almost sorted.
	for i := 1; i < len(rs); i++ {
		j := i
		for j > 0 && less(rs[j], rs[j-1]) {
			rs[j], rs[j-1] = rs[j-1], rs[j]
			j--
		}
	}
}

func less(a, b NearestResult) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.V < b.V
}
