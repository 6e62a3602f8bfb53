// Package simnet realizes the compact-routing execution model of the paper
// (Peleg-Upfal / Fraigniaud-Gavoille): a packet carries a destination label
// and a small mutable header; each vertex it visits makes a purely local
// forwarding decision - a function of that vertex's routing table, the label
// and the header - and the packet crosses the chosen port. The simulator
// moves packets hop by hop, records the traversed path and weight, and
// tracks the header's high-water mark in words.
package simnet

import (
	"errors"
	"fmt"

	"compactroute/internal/graph"
	"compactroute/internal/obs"
)

// Decision is a local forwarding decision: deliver here, or forward on Port.
type Decision struct {
	Deliver bool
	Port    graph.Port
}

// Deliver is the decision that terminates routing at the current vertex.
func Deliver() Decision { return Decision{Deliver: true} }

// Forward is the decision to send the packet out on port p.
func Forward(p graph.Port) Decision { return Decision{Port: p} }

// Packet is an opaque scheme-specific header. Schemes own the concrete type;
// the simulator only threads it through.
type Packet interface{}

// Scheme is the common interface of every routing scheme in this repository:
// the five schemes of the paper, the Thorup-Zwick baseline and the exact
// baseline. A Scheme is built in a (centralized) preprocessing phase; after
// that, Prepare and Next must behave as purely local computations - Prepare
// may use only the source's table and the destination's label, and Next only
// the current vertex's table and the packet.
type Scheme interface {
	// Name identifies the scheme in reports, e.g. "thm11-5+eps".
	Name() string
	// Graph returns the graph the scheme was preprocessed for.
	Graph() *graph.Graph
	// Prepare builds the initial packet at src for destination dst,
	// consulting src's routing table and dst's label only.
	Prepare(src, dst graph.Vertex) (Packet, error)
	// Next makes the local forwarding decision at the given vertex.
	Next(at graph.Vertex, p Packet) (Decision, error)
	// HeaderWords returns the current size of the packet header in words.
	HeaderWords(p Packet) int
	// TableWords returns the size of v's routing table in words.
	TableWords(v graph.Vertex) int
	// LabelWords returns the size of v's label in words.
	LabelWords(v graph.Vertex) int
	// StretchBound returns the maximum routed path length the scheme
	// guarantees for a source-destination pair at distance d (the bound the
	// paper's proof actually establishes, e.g. (2+2eps)d+1 for Theorem 10).
	StretchBound(d float64) float64
}

// ReusableScheme is an optional extension of Scheme for allocation-free
// serving: PrepareInto behaves exactly like Prepare but may overwrite and
// return a packet previously produced by the same scheme instead of
// allocating a fresh one. scratch is either nil, or a packet obtained from
// an earlier Prepare/PrepareInto call on this scheme that is no longer in
// flight; a foreign or nil scratch must fall back to a fresh allocation.
// The returned packet carries no state from the previous route.
type ReusableScheme interface {
	Scheme
	PrepareInto(scratch Packet, src, dst graph.Vertex) (Packet, error)
}

// PhaseReporter is an optional Scheme extension for route tracing: it maps
// the packet's current internal routing stage onto the shared obs.Phase
// vocabulary. RoutePhase is consulted only for sampled queries (behind a
// nil-trace check), before each Next call, so it must be a cheap read of the
// packet's phase field with no side effects.
type PhaseReporter interface {
	RoutePhase(p Packet) obs.Phase
}

// Result describes one completed routing.
type Result struct {
	Hops        int
	Weight      float64
	Path        []graph.Vertex // visited vertices, src first, dst last
	HeaderWords int            // high-water mark over the route
}

// ErrHopLimit is wrapped into errors returned when a packet loops.
var ErrHopLimit = errors.New("simnet: hop limit exceeded")

// ErrMisdelivered is wrapped into errors returned when a scheme delivers a
// packet at a vertex other than its destination.
var ErrMisdelivered = errors.New("simnet: packet delivered at the wrong vertex")

// ErrDiverted is returned when an EdgeHook refuses a crossing.
var ErrDiverted = errors.New("simnet: walk diverted by the edge hook")

// EdgeHook patches the hop loop for a graph that has changed since the
// scheme was preprocessed. Cross is consulted for every forward decision
// with the edge the scheme chose and its preprocessed weight; it returns the
// weight and hop count to charge for reaching next (a bypass may take
// several hops; WithPath records only the endpoints the scheme chose), or
// ok=false to stop the walk where it stands with ErrDiverted so the hook's
// owner can complete the route some other way. tr is the route's trace, nil
// when untraced.
type EdgeHook interface {
	Cross(at, next graph.Vertex, w float64, tr *obs.Trace) (cost float64, hops int, ok bool)
}

// Network executes packets of one Scheme over its graph.
type Network struct {
	scheme   Scheme
	reuse    ReusableScheme // non-nil when scheme supports packet reuse
	phaser   PhaseReporter  // non-nil when scheme reports routing phases
	g        *graph.Graph
	maxHops  int
	keepPath bool
}

// Option configures a Network.
type Option interface{ apply(*Network) }

type optionFunc func(*Network)

func (f optionFunc) apply(n *Network) { f(n) }

// WithMaxHops overrides the loop-protection hop limit (default 8n+64).
func WithMaxHops(h int) Option {
	return optionFunc(func(n *Network) { n.maxHops = h })
}

// WithPath records the full vertex path in Results (off by default to keep
// large evaluations cheap).
func WithPath() Option {
	return optionFunc(func(n *Network) { n.keepPath = true })
}

// NewNetwork wraps a preprocessed scheme for execution.
func NewNetwork(s Scheme, opts ...Option) *Network {
	n := &Network{scheme: s, g: s.Graph(), maxHops: 8*s.Graph().N() + 64}
	n.reuse, _ = s.(ReusableScheme)
	n.phaser, _ = s.(PhaseReporter)
	for _, o := range opts {
		o.apply(n)
	}
	return n
}

// Route sends a packet from src to dst and reports the traversed path.
func (n *Network) Route(src, dst graph.Vertex) (Result, error) {
	res, _, err := n.RouteReuse(src, dst, nil)
	return res, err
}

// RouteReuse is Route with packet-scratch reuse: scratch is a packet
// returned by an earlier RouteReuse call on this network (or nil), and the
// packet used for this route is returned for the caller to pass back in.
// When the scheme implements ReusableScheme a warm caller routes with zero
// steady-state allocations; otherwise scratch is ignored and a fresh packet
// is prepared. The Result is bit-identical to Route's.
func (n *Network) RouteReuse(src, dst graph.Vertex, scratch Packet) (Result, Packet, error) {
	return n.RouteTraced(src, dst, scratch, nil)
}

// RouteTraced is RouteReuse with an optional trace recorder: when tr is
// non-nil, the phase decision about to be executed at each visited vertex
// (read through the scheme's PhaseReporter, if implemented) is recorded on
// the trace before the Next call that acts on it. A nil tr takes the exact
// untraced path - the per-hop cost is one predictable branch - so callers
// can thread their sampler's output through unconditionally.
func (n *Network) RouteTraced(src, dst graph.Vertex, scratch Packet, tr *obs.Trace) (Result, Packet, error) {
	return n.RouteHooked(src, dst, scratch, tr, nil)
}

// RouteHooked is RouteTraced with an optional EdgeHook charging every
// crossing; a nil hook crosses each chosen edge at its preprocessed weight.
// This is the one hop loop of the repository: static serving runs it without
// a hook, live serving with the overlay's.
func (n *Network) RouteHooked(src, dst graph.Vertex, scratch Packet, tr *obs.Trace, hook EdgeHook) (Result, Packet, error) {
	var res Result
	var pkt Packet
	var err error
	if n.reuse != nil {
		pkt, err = n.reuse.PrepareInto(scratch, src, dst)
	} else {
		pkt, err = n.scheme.Prepare(src, dst)
	}
	if err != nil {
		return res, pkt, fmt.Errorf("prepare %d->%d: %w", src, dst, err)
	}
	at := src
	if n.keepPath {
		res.Path = append(res.Path, at)
	}
	res.HeaderWords = n.scheme.HeaderWords(pkt)
	for {
		if tr != nil {
			ph := obs.PhaseNone
			if n.phaser != nil {
				ph = n.phaser.RoutePhase(pkt)
			}
			tr.Step(int32(at), ph)
		}
		d, err := n.scheme.Next(at, pkt)
		if err != nil {
			return res, pkt, fmt.Errorf("next at %d (%d->%d, hop %d): %w", at, src, dst, res.Hops, err)
		}
		if hw := n.scheme.HeaderWords(pkt); hw > res.HeaderWords {
			res.HeaderWords = hw
		}
		if d.Deliver {
			if at != dst {
				return res, pkt, fmt.Errorf("%w: %d->%d stopped at %d", ErrMisdelivered, src, dst, at)
			}
			return res, pkt, nil
		}
		if d.Port < 0 || int(d.Port) >= n.g.Degree(at) {
			return res, pkt, fmt.Errorf("simnet: invalid port %d at vertex %d (degree %d)", d.Port, at, n.g.Degree(at))
		}
		next, w, _ := n.g.Endpoint(at, d.Port)
		hops := 1
		if hook != nil {
			var ok bool
			if w, hops, ok = hook.Cross(at, next, w, tr); !ok {
				return res, pkt, ErrDiverted
			}
		}
		res.Hops += hops
		res.Weight += w
		at = next
		if n.keepPath {
			res.Path = append(res.Path, at)
		}
		if res.Hops > n.maxHops {
			return res, pkt, fmt.Errorf("routing %d->%d: %w (limit %d)", src, dst, ErrHopLimit, n.maxHops)
		}
	}
}
