package graph

import "math/bits"

// Workspace is the reusable scratch state of one search over one graph: the
// tentative-distance/parent labels of a Dijkstra-style search, a 4-ary
// min-heap, the radix queue of the full-row weighted search, a head-indexed
// BFS queue, and epoch-stamped membership sets. Acquire one
// from the owning graph's pool (AcquireWorkspace / ReleaseWorkspace); a
// workspace is sized for that graph and must not be used with another.
//
// # Epoch stamping
//
// Instead of clearing O(n) state between searches, the workspace stamps
// every label it writes with the current epoch: seen[v] == epoch means the
// dist/parent entries of v belong to this search. Reset bumps the epoch,
// invalidating all labels in O(1); when the 32-bit epoch wraps, the stamp
// array is zeroed once and the epoch restarts at 1, so stale stamps can
// never collide.
//
// # Determinism
//
// The tie-break contract of ShortestPaths is that rows equal those of a
// search finalizing vertices in (dist, id) order. The heap pops in exactly
// that order, and a 4-ary heap pops the same (dist, id) sequence as any
// other min-heap under that total order (entries for equal keys are
// duplicates of one vertex and indistinguishable), so switching heap shape
// or reusing a pooled workspace never changes any search result. Pruned
// searches built on Pop and Peek (Nearest, BoundedBidiDist, the cluster
// searches) rely on those strict (dist, id) pops. The full-row weighted
// search pops its radix queue in distance order only and restores the same
// rows with a tie-break in its relax step (see Graph.dijkstraInto).
//
// A Workspace is not safe for concurrent use; the pool hands each goroutine
// its own.
type Workspace struct {
	dist   []float64
	parent []Vertex
	seen   []uint32 // seen[v] == epoch: dist/parent of v are valid
	epoch  uint32
	heap   heap4
	radix  radixQueue // full-row weighted search (Graph.dijkstraInto)
	queue  []Vertex   // BFS queue storage, drained by a head index (never wraps)
}

func newWorkspace(n int) *Workspace {
	return &Workspace{
		dist:   make([]float64, n),
		parent: make([]Vertex, n),
		seen:   make([]uint32, n),
		// The zeroed stamp array must mean "nothing labeled", so the live
		// epoch starts above 0 - otherwise a fresh workspace used through
		// Relax/Pop before the first Reset would see every vertex as
		// already labeled at distance 0.
		epoch: 1,
		queue: make([]Vertex, 0, n),
	}
}

// AcquireWorkspace hands out a search workspace sized for g from the graph's
// pool. Release it with ReleaseWorkspace when the search is finished; the
// scratch is recycled across searches and workers, which is what keeps the
// steady-state search kernels allocation-free.
func (g *Graph) AcquireWorkspace() *Workspace {
	return g.wsPool.Get().(*Workspace)
}

// ReleaseWorkspace returns ws to g's pool. The caller must not touch ws (or
// any label read through it) afterwards.
func (g *Graph) ReleaseWorkspace(ws *Workspace) {
	g.wsPool.Put(ws)
}

// Reset starts a new search: it invalidates all labels by bumping the epoch
// and empties the heap. O(1) except once per 2^32-1 searches, when the wrap
// forces a one-time stamp clear.
func (ws *Workspace) Reset() {
	ws.epoch++
	if ws.epoch == 0 { // wrapped: stale stamps could now collide, clear once
		clear(ws.seen)
		ws.epoch = 1
	}
	ws.heap.reset()
}

// Start is Reset plus seeding the search at src: dist 0, no parent, src
// pushed onto the heap. It is the usual opening move of the pruned
// Dijkstra-style searches built on top of a Workspace.
func (ws *Workspace) Start(src Vertex) {
	ws.Reset()
	ws.dist[src] = 0
	ws.parent[src] = NoVertex
	ws.seen[src] = ws.epoch
	ws.heap.push(0, src)
}

// Dist returns the tentative distance of v in the current search and whether
// v has been labeled at all.
func (ws *Workspace) Dist(v Vertex) (float64, bool) {
	if ws.seen[v] != ws.epoch {
		return Infinity, false
	}
	return ws.dist[v], true
}

// Parent returns the search-tree parent of a labeled vertex.
func (ws *Workspace) Parent(v Vertex) Vertex { return ws.parent[v] }

// Relax offers the path to v of length d through parent. It updates the
// label and pushes v if v is unlabeled or d improves on v's tentative
// distance, and reports whether it did. Equal distances never overwrite -
// the first labeling wins, the tie-break every canonical-path consumer
// relies on.
func (ws *Workspace) Relax(v Vertex, d float64, parent Vertex) bool {
	if ws.seen[v] == ws.epoch && ws.dist[v] <= d {
		return false
	}
	ws.dist[v] = d
	ws.parent[v] = parent
	ws.seen[v] = ws.epoch
	ws.heap.push(d, v)
	return true
}

// Pop removes and returns the next vertex in (dist, id) order, skipping
// stale heap entries (those whose distance no longer matches the label).
// ok is false when the search frontier is exhausted.
func (ws *Workspace) Pop() (v Vertex, d float64, ok bool) {
	for ws.heap.len() > 0 {
		d, v := ws.heap.pop()
		if ws.seen[v] != ws.epoch || d != ws.dist[v] {
			continue // superseded by a later, shorter relaxation
		}
		return v, d, true
	}
	return NoVertex, Infinity, false
}

// Peek returns the next vertex in (dist, id) order without finalizing it,
// discarding stale heap entries on the way (the same lazy deletion Pop
// applies, so a following Pop returns exactly the peeked entry). ok is false
// when the search frontier is exhausted. Peek is what the bidirectional
// kernel's termination rule is built on: it needs both frontiers' next keys
// before deciding which side to expand.
func (ws *Workspace) Peek() (v Vertex, d float64, ok bool) {
	for ws.heap.len() > 0 {
		d, v := ws.heap.ds[0], ws.heap.vs[0]
		if ws.seen[v] == ws.epoch && d == ws.dist[v] {
			return v, d, true
		}
		ws.heap.pop() // superseded by a later, shorter relaxation
	}
	return NoVertex, Infinity, false
}

// heap4 is a 4-ary min-heap of (dist, vertex) pairs ordered by (dist, id).
// The flatter shape does ~half the levels of a binary heap per operation,
// and the parallel ds/vs arrays keep sift comparisons on one cache line;
// both matter because every search kernel funnels through this structure.
// The pop order under the (dist, id) total order is identical to the binary
// heap it replaced, so all canonical tie-breaks are preserved.
type heap4 struct {
	ds []float64
	vs []Vertex
}

func (h *heap4) len() int { return len(h.ds) }

func (h *heap4) reset() {
	h.ds = h.ds[:0]
	h.vs = h.vs[:0]
}

func (h *heap4) lessAt(i, j int) bool {
	if h.ds[i] != h.ds[j] {
		return h.ds[i] < h.ds[j]
	}
	return h.vs[i] < h.vs[j]
}

func (h *heap4) swap(i, j int) {
	h.ds[i], h.ds[j] = h.ds[j], h.ds[i]
	h.vs[i], h.vs[j] = h.vs[j], h.vs[i]
}

func (h *heap4) push(d float64, v Vertex) {
	h.ds = append(h.ds, d)
	h.vs = append(h.vs, v)
	i := len(h.ds) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h.lessAt(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *heap4) pop() (float64, Vertex) {
	d, v := h.ds[0], h.vs[0]
	last := len(h.ds) - 1
	h.ds[0], h.vs[0] = h.ds[last], h.vs[last]
	h.ds, h.vs = h.ds[:last], h.vs[:last]
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h.ds) {
			break
		}
		small := first
		end := first + 4
		if end > len(h.ds) {
			end = len(h.ds)
		}
		for c := first + 1; c < end; c++ {
			if h.lessAt(c, small) {
				small = c
			}
		}
		if !h.lessAt(small, i) {
			break
		}
		h.swap(i, small)
		i = small
	}
	return d, v
}

// radixQueue is a monotone radix heap over uint64 keys: the IEEE bits of
// non-negative float64 distances, which order exactly as the distances do.
// Every pushed key must be at least the last popped one, which Dijkstra
// guarantees. An item whose key differs from the last popped key first in
// bit b-1 sits in bucket b, so bucket 0 holds the items at the current
// minimum; when it runs dry the lowest non-empty bucket is split around its
// own minimum into lower buckets. Each item moves down at most 64 times,
// and in practice a few, which is much cheaper than the sift comparisons of
// a heap. Items with equal keys pop in no particular order: callers that
// need a (dist, id) order must restore it themselves (dijkstraInto does in
// its relax step) or use heap4.
type radixQueue struct {
	last    uint64
	n       int
	buckets [65][]radixItem
}

type radixItem struct {
	key uint64
	v   Vertex
}

func (q *radixQueue) len() int { return q.n }

func (q *radixQueue) reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.last, q.n = 0, 0
}

func (q *radixQueue) push(key uint64, v Vertex) {
	b := bits.Len64(key ^ q.last)
	q.buckets[b] = append(q.buckets[b], radixItem{key, v})
	q.n++
}

// pop removes an item with the minimum key; the queue must be non-empty.
func (q *radixQueue) pop() (uint64, Vertex) {
	if len(q.buckets[0]) == 0 {
		i := 1
		for len(q.buckets[i]) == 0 {
			i++
		}
		b := q.buckets[i]
		last := b[0].key
		for _, it := range b[1:] {
			if it.key < last {
				last = it.key
			}
		}
		q.last = last
		for _, it := range b {
			j := bits.Len64(it.key ^ last)
			q.buckets[j] = append(q.buckets[j], it)
		}
		q.buckets[i] = b[:0]
	}
	b0 := q.buckets[0]
	it := b0[len(b0)-1]
	q.buckets[0] = b0[:len(b0)-1]
	q.n--
	return it.key, it.v
}
