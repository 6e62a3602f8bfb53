// Package scheme2 implements Theorem 10 of the paper: a (2+eps, 1)-stretch
// labeled routing scheme for unweighted graphs with O~((1/eps) n^{2/3})-word
// routing tables, nearly matching the Patrascu-Roditty (2,1) distance oracle.
//
// Construction (q = n^{1/3}):
//   - every vertex stores B(u, q-tilde) (Lemma 2 tables);
//   - a landmark set A with |C_A(w)| = O(n^{1/3}) (Lemma 4); cluster trees
//     are routable, roots keep their members' tree labels;
//   - a spanning shortest-path tree T(w) per landmark w in A, routable from
//     every vertex;
//   - a hash table at u holding, for every v whose bunch intersects
//     B(u, q-tilde), the intersection vertex w minimizing d(u,w)+d(w,v);
//   - a Lemma 6 coloring with q colors and the Lemma 7 machinery over the
//     color classes.
//
// Routing u -> v: (1) if the hash table has v, walk to w and descend the
// cluster tree of w - an exact shortest path; (2) otherwise compare
// d(v, p_A(v)) (from v's label) against d(u, w_rep): route on the global
// tree T(p_A(v)) (length <= 2d+1), or walk to the color representative and
// finish with Lemma 7 (length <= (2+2eps)d).
package scheme2

import (
	"fmt"
	"math"

	"compactroute/internal/cluster"
	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/parallel"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
	"compactroute/internal/space"
	"compactroute/internal/treeroute"
)

// Params configures the scheme.
type Params struct {
	Eps            float64
	VicinityFactor float64 // alpha of q-tilde; default 1.5
	Seed           int64
}

func (p *Params) fill() {
	if p.VicinityFactor == 0 {
		p.VicinityFactor = 1.5
	}
}

// via is a hash-table entry: the bunch-intersection vertex for a destination.
type via struct {
	w   graph.Vertex
	sum float64
}

// label is the o(log^2 n)-bit label of a destination.
type label struct {
	color    int32
	pa       graph.Vertex    // p_A(v)
	distPA   float64         // d(v, p_A(v))
	treeLbl  treeroute.Label // label of v in the global tree T(p_A(v))
	clustLbl treeroute.Label // unused placeholder kept for layout clarity
}

// Scheme is the preprocessed Theorem 10 scheme.
type Scheme struct {
	g     *graph.Graph
	eps   float64
	vc    *schemeutil.VicinityColoring
	lms   *cluster.Landmarks
	fores *schemeutil.ClusterForest
	// global spanning trees per landmark, indexed by landmark vertex.
	global map[graph.Vertex]*treeroute.Tree
	hash   []map[graph.Vertex]via
	labels []label
	intra  *core.Intra
	tally  *space.Tally
}

var _ simnet.Scheme = (*Scheme)(nil)

// New runs the preprocessing phase. The graph must be unweighted.
func New(g *graph.Graph, paths graph.PathSource, params Params) (*Scheme, error) {
	params.fill()
	if !g.Unit() {
		return nil, fmt.Errorf("scheme2: Theorem 10 applies to unweighted graphs")
	}
	n := g.N()
	q := int(math.Ceil(math.Cbrt(float64(n))))
	vc, err := schemeutil.BuildVicinityColoring(g, q, params.VicinityFactor, params.Seed)
	if err != nil {
		return nil, fmt.Errorf("scheme2: %w", err)
	}
	sTarget := int(math.Ceil(math.Pow(float64(n), 2.0/3.0)))
	lms, err := cluster.CenterCover(g, sTarget, params.Seed+101)
	if err != nil {
		return nil, fmt.Errorf("scheme2: %w", err)
	}
	intra, err := core.NewIntra(core.IntraConfig{
		Graph: g, Paths: paths, Vics: vc.Vics, PartOf: vc.PartOf, Eps: params.Eps,
	})
	if err != nil {
		return nil, fmt.Errorf("scheme2: %w", err)
	}
	return assemble(g, params.Eps, vc, lms, intra)
}

// assemble derives every remaining structure from (graph, vicinities,
// coloring, landmarks, intra) - cluster forest, global landmark trees, the
// bunch-intersection hash tables, labels and the storage tally. It is the
// shared tail of the build and snapshot-restore paths, deterministic for
// every worker count, which is what makes a decoded scheme behaviorally
// identical to the encoded one.
func assemble(g *graph.Graph, eps float64, vc *schemeutil.VicinityColoring, lms *cluster.Landmarks, intra *core.Intra) (*Scheme, error) {
	n := g.N()
	fores, err := schemeutil.BuildClusterForest(g, lms)
	if err != nil {
		return nil, fmt.Errorf("scheme2: %w", err)
	}
	s := &Scheme{
		g: g, eps: eps, vc: vc, lms: lms, fores: fores, intra: intra,
		global: make(map[graph.Vertex]*treeroute.Tree, len(lms.A)),
		hash:   make([]map[graph.Vertex]via, n),
		labels: make([]label, n),
	}
	// One global SPT per landmark, built on the worker pool (each slot is
	// owned by its landmark index) and merged into the map in landmark order.
	globalTrees := make([]*treeroute.Tree, len(lms.A))
	if err := parallel.ForErr(len(lms.A), func(i int) error {
		tr, err := treeroute.SPT(g, lms.A[i])
		if err != nil {
			return fmt.Errorf("scheme2: global tree %d: %w", lms.A[i], err)
		}
		globalTrees[i] = tr
		return nil
	}); err != nil {
		return nil, err
	}
	for i, w := range lms.A {
		s.global[w] = globalTrees[i]
	}
	// Hash tables: for every w in B(u, q-tilde) and every v in C_A(w), w is
	// a member of B(u, q-tilde) /\ B_A(v); keep the best per destination.
	parallel.For(n, func(u int) {
		h := make(map[graph.Vertex]via)
		vic := vc.Vics[u]
		for i, c := 0, vic.Size(); i < c; i++ {
			mv, md := vic.MemberV(i), vic.MemberDist(i)
			for _, cm := range lms.Cluster(mv) {
				sum := md + cm.Dist
				if old, ok := h[cm.V]; !ok || sum < old.sum || (sum == old.sum && mv < old.w) {
					h[cm.V] = via{w: mv, sum: sum}
				}
			}
		}
		s.hash[u] = h
	})
	parallel.For(n, func(v int) {
		pa := lms.P[v]
		s.labels[v] = label{
			color:   vc.PartOf[v],
			pa:      pa,
			distPA:  lms.DistA[v],
			treeLbl: s.global[pa].LabelOf(graph.Vertex(v)),
		}
	})
	s.tally = space.NewTally(n)
	vc.AddWords(s.tally)
	fores.AddWords(s.tally, "cluster-trees")
	for u := 0; u < n; u++ {
		gw := 0
		for _, tr := range s.global {
			gw += tr.WordsAt(graph.Vertex(u))
		}
		s.tally.Add("global-landmark-trees", u, gw)
		s.tally.Add("bunch-hash", u, 3*len(s.hash[u]))
	}
	s.intra.AddTableWords(s.tally)
	return s, nil
}

type phase int8

const (
	phaseVicinity   phase = iota + 1 // direct Lemma 2 routing to dst
	phaseToVia                       // walking to the bunch-intersection w
	phaseClusterTre                  // descending w's cluster tree
	phaseGlobalTree                  // routing on T(p_A(v))
	phaseToRep                       // walking to the color representative
	phaseIntra                       // Lemma 7 leg
)

type packet struct {
	dst   graph.Vertex
	lbl   label
	ph    phase
	via   graph.Vertex // phaseToVia/phaseClusterTre: the intersection w
	tlbl  treeroute.Label
	rep   graph.Vertex
	intra *core.IntraState
}

// Name implements simnet.Scheme.
func (s *Scheme) Name() string { return "thm10-2+eps,1" }

// Graph implements simnet.Scheme.
func (s *Scheme) Graph() *graph.Graph { return s.g }

// Prepare implements simnet.Scheme, following the case analysis of the
// Theorem 10 routing procedure.
func (s *Scheme) Prepare(src, dst graph.Vertex) (simnet.Packet, error) {
	pk := &packet{dst: dst, lbl: s.labels[dst]}
	switch {
	case src == dst || s.vc.Vics[src].Contains(dst):
		pk.ph = phaseVicinity
	default:
		if entry, ok := s.hash[src][dst]; ok {
			pk.ph = phaseToVia
			pk.via = entry.w
			break
		}
		rep := s.vc.Reps[src][pk.lbl.color]
		if pk.lbl.distPA <= s.vc.RepDist[src][pk.lbl.color] {
			pk.ph = phaseGlobalTree
			pk.tlbl = pk.lbl.treeLbl
		} else {
			pk.ph = phaseToRep
			pk.rep = rep
		}
	}
	return pk, nil
}

// Next implements simnet.Scheme.
func (s *Scheme) Next(at graph.Vertex, p simnet.Packet) (simnet.Decision, error) {
	pk, ok := p.(*packet)
	if !ok {
		return simnet.Decision{}, fmt.Errorf("scheme2: foreign packet %T", p)
	}
	if at == pk.dst {
		return simnet.Deliver(), nil
	}
	switch pk.ph {
	case phaseVicinity:
		return s.vicinityStep(at, pk.dst)
	case phaseToVia:
		if at != pk.via {
			return s.vicinityStep(at, pk.via)
		}
		lbl, ok := s.fores.LabelAtRoot(at, pk.dst)
		if !ok {
			return simnet.Decision{}, fmt.Errorf("scheme2: %d not in cluster of %d", pk.dst, at)
		}
		pk.ph = phaseClusterTre
		pk.tlbl = lbl
		fallthrough
	case phaseClusterTre:
		deliver, port, err := schemeutil.TreeStep(s.fores.Tree(pk.via), at, pk.tlbl)
		return decision(deliver, port, err)
	case phaseGlobalTree:
		tr, ok := s.global[pk.lbl.pa]
		if !ok {
			return simnet.Decision{}, fmt.Errorf("scheme2: %d is not a landmark", pk.lbl.pa)
		}
		deliver, port, err := tr.Next(at, pk.tlbl)
		return decision(deliver, port, err)
	case phaseToRep:
		if at != pk.rep {
			return s.vicinityStep(at, pk.rep)
		}
		st, err := s.intra.Start(at, pk.dst)
		if err != nil {
			return simnet.Decision{}, fmt.Errorf("scheme2: intra start: %w", err)
		}
		pk.ph = phaseIntra
		pk.intra = st
		fallthrough
	case phaseIntra:
		return s.intra.Step(at, pk.intra)
	default:
		return simnet.Decision{}, fmt.Errorf("scheme2: corrupt packet phase %d", pk.ph)
	}
}

func decision(deliver bool, port graph.Port, err error) (simnet.Decision, error) {
	if err != nil {
		return simnet.Decision{}, err
	}
	if deliver {
		return simnet.Deliver(), nil
	}
	return simnet.Forward(port), nil
}

func (s *Scheme) vicinityStep(at, target graph.Vertex) (simnet.Decision, error) {
	port, ok := s.vc.Vics[at].FirstPort(target)
	if !ok {
		return simnet.Decision{}, fmt.Errorf("scheme2: %d lost vicinity target %d", at, target)
	}
	return simnet.Forward(port), nil
}

// HeaderWords implements simnet.Scheme.
func (s *Scheme) HeaderWords(p simnet.Packet) int {
	pk := p.(*packet)
	w := 8
	if pk.intra != nil {
		w += pk.intra.Words()
	}
	return w
}

// TableWords implements simnet.Scheme.
func (s *Scheme) TableWords(v graph.Vertex) int { return s.tally.At(int(v)) }

// Tally exposes the storage breakdown.
func (s *Scheme) Tally() *space.Tally { return s.tally }

// LabelWords implements simnet.Scheme: v, c(v), p_A(v), d(v,p_A(v)), tree
// label in T(p_A(v)).
func (s *Scheme) LabelWords(graph.Vertex) int { return 5 }

// Landmarks exposes |A| for the experiments.
func (s *Scheme) Landmarks() int { return len(s.lms.A) }

// StretchBound implements simnet.Scheme: the proof gives the worst case
// max(2d+1, (2+2eps)d).
func (s *Scheme) StretchBound(d float64) float64 {
	return math.Max(2*d+1, (2+2*s.eps)*d)
}
