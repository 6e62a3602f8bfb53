// The reverse touch index of a vicinity family: which truncated searches
// crossed a given vertex. vicinity.Build settles a bounded set of vertices
// per center; an edge update can only change the vicinities whose settled
// set contains one of its endpoints, so the transpose of the settled sets
// turns an update into a dirty set of centers in time proportional to the
// index lists it reads, not to n. This is the entry point of the incremental
// repair path (internal/scheme5 Repairable).
package vicinity

import (
	"sort"

	"compactroute/internal/graph"
)

// Touch maps each vertex to the centers whose truncated Nearest search
// settled it. The forward lists (per-center settled sets, in (dist, id) pop
// order) are kept so a repair can share the lists of clean centers and
// replace only dirty ones; the transpose is flat CSR (off/centers) built in
// ascending center order, so every CentersOf list is sorted.
type Touch struct {
	n       int
	settled [][]graph.Vertex // per-center settled ids, pop order
	off     []uint32         // transpose offsets, len n+1
	centers []graph.Vertex   // centers whose search settled v, ascending
}

// NewTouch builds the reverse index over per-center settled lists (one per
// vertex, as returned by BuildTouch).
func NewTouch(n int, settled [][]graph.Vertex) *Touch {
	t := &Touch{n: n, settled: settled}
	off := make([]uint32, n+1)
	for _, s := range settled {
		for _, v := range s {
			off[v+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	centers := make([]graph.Vertex, off[n])
	cur := make([]uint32, n)
	copy(cur, off[:n])
	for u, s := range settled {
		for _, v := range s {
			centers[cur[v]] = graph.Vertex(u)
			cur[v]++
		}
	}
	t.off, t.centers = off, centers
	return t
}

// N returns the number of vertices the index covers.
func (t *Touch) N() int { return t.n }

// Settled returns the settled set of center u's truncated search, in
// (dist, id) pop order. The slice is owned by the index.
func (t *Touch) Settled(u graph.Vertex) []graph.Vertex { return t.settled[u] }

// CentersOf returns the centers whose truncated search settled v, in
// ascending order. The slice aliases the index and must not be modified.
func (t *Touch) CentersOf(v graph.Vertex) []graph.Vertex {
	return t.centers[t.off[v]:t.off[v+1]]
}

// TouchedWords returns the total size of the index in words (one per
// settled-set entry; the transpose mirrors the same count).
func (t *Touch) TouchedWords() int { return len(t.centers) }

// DirtyCenters returns the sorted, deduplicated set of centers whose
// truncated search settled any of the given vertices - the vicinities an
// update incident to those vertices can possibly change.
func (t *Touch) DirtyCenters(vs []graph.Vertex) []graph.Vertex {
	seen := make([]bool, t.n)
	var out []graph.Vertex
	for _, v := range vs {
		if v < 0 || int(v) >= t.n {
			continue
		}
		for _, u := range t.CentersOf(v) {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Updated returns a new index that shares the settled list of every center
// not present in repl and uses the replacement list for those that are.
func (t *Touch) Updated(repl map[graph.Vertex][]graph.Vertex) *Touch {
	settled := make([][]graph.Vertex, t.n)
	copy(settled, t.settled)
	for u, s := range repl {
		settled[u] = s
	}
	return NewTouch(t.n, settled)
}

// BuildAllTouch computes B(u, l) for every vertex in parallel, like
// BuildAll, and additionally returns the reverse touch index of the family.
func BuildAllTouch(g *graph.Graph, l int) ([]*Set, *Touch, error) {
	sets, settled, err := buildFamily(g, l, true)
	if err != nil {
		return nil, nil, err
	}
	return sets, NewTouch(g.N(), settled), nil
}
