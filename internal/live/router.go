package live

import (
	"errors"
	"fmt"

	"compactroute/internal/graph"
	"compactroute/internal/obs"
	"compactroute/internal/simnet"
)

// DefaultDetourBudget is the number of vertices a dead-edge local search may
// finalize before the router gives up on detouring and falls back to one
// exact search for the whole remaining route.
const DefaultDetourBudget = 64

// ErrUnreachable reports a destination with no finite effective route.
var ErrUnreachable = errors.New("live: destination unreachable in the effective graph")

// Result is the outcome of one overlay-patched route.
type Result struct {
	Src, Dst    graph.Vertex
	Hops        int
	Weight      float64 // effective (current) weight of the traversed walk
	HeaderWords int
	// DeadHits counts scheme decisions that chose a dead edge.
	DeadHits int
	// Detours counts dead edges successfully bypassed by bounded local
	// search; DetourHops is the total length of those bypasses.
	Detours    int
	DetourHops int
	// Fallback reports that the route was completed by a per-query exact
	// search (detour budget exhausted, hop budget exhausted, or the scheme
	// failed on its own state).
	Fallback bool
	Err      error
}

// Stale reports whether the route was served degraded: it crossed at least
// one overlay-patched decision (detour or fallback). A non-stale route is
// exactly the walk the preprocessed scheme would have taken on its own
// graph.
func (r Result) Stale() bool { return r.DeadHits > 0 || r.Fallback }

// Router executes one preprocessed scheme against the current effective
// graph through simnet's hop loop with the overlay as its edge hook: scheme
// decisions are taken verbatim while their edges are alive (at current
// weights), dead edges are bypassed with bounded local search, and a
// per-query exact search finishes any route the scheme can no longer
// complete. A Router is immutable and safe for concurrent use; the overlay
// it consults is shared and live.
type Router struct {
	nw     *simnet.Network
	scheme simnet.Scheme
	ov     *Overlay
	budget int
}

// NewRouter wraps a preprocessed scheme for overlay-patched execution.
// budget <= 0 selects DefaultDetourBudget; maxHops <= 0 keeps the simnet
// default of 8n+64. The scheme's graph must have the overlay's vertex count
// (schemes of any generation route against the same vertex set).
func NewRouter(s simnet.Scheme, ov *Overlay, budget, maxHops int) (*Router, error) {
	if s.Graph().N() != ov.N() {
		return nil, fmt.Errorf("live: scheme graph has %d vertices, overlay %d", s.Graph().N(), ov.N())
	}
	if budget <= 0 {
		budget = DefaultDetourBudget
	}
	var opts []simnet.Option
	if maxHops > 0 {
		opts = append(opts, simnet.WithMaxHops(maxHops))
	}
	return &Router{nw: simnet.NewNetwork(s, opts...), scheme: s, ov: ov, budget: budget}, nil
}

// Scheme returns the preprocessed scheme being patched.
func (r *Router) Scheme() simnet.Scheme { return r.scheme }

// Scratch is the reusable per-route state of RouteInto: the scheme's packet
// and the edge hook's position and counters. The zero value is ready; a
// Scratch serves one route at a time.
type Scratch struct {
	pkt  simnet.Packet
	hook hook
}

// hook is the overlay's simnet.EdgeHook for one route: it charges alive
// edges their current weight, bypasses dead ones with a bounded detour, and
// tracks the packet's position so a stopped walk can be finished exactly.
type hook struct {
	ov                            *Overlay
	budget                        int
	at                            graph.Vertex
	deadHits, detours, detourHops int
}

// Cross implements simnet.EdgeHook.
func (h *hook) Cross(at, next graph.Vertex, w float64, tr *obs.Trace) (float64, int, bool) {
	if ew, alive := h.ov.EffectiveWeight(at, next, w); alive {
		h.at = next
		return ew, 1, true
	}
	h.deadHits++
	if tr != nil {
		tr.Step(int32(at), obs.PhaseDetour)
	}
	path, pw, ok := h.ov.detour(at, next, h.budget, false)
	if !ok {
		return 0, 0, false
	}
	h.detours++
	h.detourHops += len(path) - 1
	h.at = next
	return pw, len(path) - 1, true
}

// Route serves one query. Every returned route is a real walk in the
// effective graph with its current weights; when the scheme alone cannot
// produce one, the route is completed by detour or fallback and the Result
// says so. Err is non-nil only for invalid pairs, truly unreachable
// destinations, or a scheme that misbehaves beyond repair.
func (r *Router) Route(src, dst graph.Vertex) Result {
	var sc Scratch
	return r.RouteInto(&sc, src, dst, nil)
}

// RouteInto is Route with caller-owned scratch, reused across routes (a
// warm Scratch routes a reuse-capable scheme without allocating), and an
// optional trace recorder: each hop records the scheme phase about to act,
// and overlay interventions record PhaseDetour / PhaseFallback steps.
func (r *Router) RouteInto(sc *Scratch, src, dst graph.Vertex, tr *obs.Trace) Result {
	res := Result{Src: src, Dst: dst}
	if n := graph.Vertex(r.ov.N()); src < 0 || src >= n || dst < 0 || dst >= n {
		res.Err = fmt.Errorf("live: pair (%d, %d) out of range [0, %d)", src, dst, n)
		return res
	}
	sc.hook = hook{ov: r.ov, budget: r.budget, at: src}
	walk, pkt, err := r.nw.RouteHooked(src, dst, sc.pkt, tr, &sc.hook)
	if pkt != nil {
		sc.pkt = pkt
	}
	h := &sc.hook
	res.Hops, res.Weight, res.HeaderWords = walk.Hops, walk.Weight, walk.HeaderWords
	res.DeadHits, res.Detours, res.DetourHops = h.deadHits, h.detours, h.detourHops
	switch {
	case err == nil:
	case errors.Is(err, simnet.ErrMisdelivered):
		res.Err = fmt.Errorf("live: %w", err)
	default:
		// The scheme failed on its own state, a detour ran out of budget,
		// or the hop budget ran out: finish exactly from where it stopped.
		r.fallback(&res, h.at, tr)
	}
	return res
}

// fallback completes the route from the packet's current position with one
// exact search over the effective graph.
func (r *Router) fallback(res *Result, at graph.Vertex, tr *obs.Trace) {
	res.Fallback = true
	if tr != nil {
		tr.Step(int32(at), obs.PhaseFallback)
		tr.Fallback = true
	}
	if at == res.Dst {
		return
	}
	path, w, ok := r.ov.exact(at, res.Dst)
	if !ok {
		res.Err = fmt.Errorf("live: routing %d->%d: %w", res.Src, res.Dst, ErrUnreachable)
		return
	}
	res.Hops += len(path) - 1
	res.Weight += w
}
