// Package power models the data-center power distribution system of the
// paper's Figure 1: grid feed, transformer/switchgear, UPS, power
// distribution units (PDUs), and rack circuits, down to server leaves.
// Each tier has a loss model, a rated capacity, and (for the UPS) a surge
// limit; the tree reports critical power, total losses, per-node
// utilization and overloads, and supports power capping and
// oversubscription accounting ("the power capacity of a data center is
// primarily defined by the capability of the UPS system", §2.1).
package power

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Kind identifies the tier of a distribution node.
type Kind int

// Distribution tiers, outermost first (paper Figure 1).
const (
	KindFeed Kind = iota + 1 // utility feed + transformer + switchgear
	KindUPS
	KindPDU
	KindRack // rack-level circuit / rack PDU
)

// String renders the tier name.
func (k Kind) String() string {
	switch k {
	case KindFeed:
		return "feed"
	case KindUPS:
		return "ups"
	case KindPDU:
		return "pdu"
	case KindRack:
		return "rack"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// LossModel describes a tier's conversion/distribution losses as a
// function of loading, following the standard quadratic form: the input
// power needed to deliver output P on a device rated R is
//
//	P + R·(fixed + prop·u + sq·u²),  u = P/R.
//
// Fixed covers no-load losses (transformer magnetization, UPS
// electronics); Prop covers switching losses; Sq covers resistive (I²R)
// losses.
type LossModel struct {
	Fixed float64
	Prop  float64
	Sq    float64
}

// Loss evaluates the loss in watts for output watts out on rating rated.
func (m LossModel) Loss(out, rated float64) float64 {
	if rated <= 0 {
		return 0
	}
	u := out / rated
	return rated * (m.Fixed + m.Prop*u + m.Sq*u*u)
}

// Typical loss models per tier (double-conversion UPS ≈ 92–95 % efficient
// at high load, much worse when lightly loaded — one reason static
// overprovisioning is wasteful).
var (
	DefaultFeedLoss = LossModel{Fixed: 0.005, Prop: 0.010, Sq: 0.005}
	DefaultUPSLoss  = LossModel{Fixed: 0.020, Prop: 0.030, Sq: 0.020}
	DefaultPDULoss  = LossModel{Fixed: 0.005, Prop: 0.010, Sq: 0.010}
	DefaultRackLoss = LossModel{Fixed: 0.002, Prop: 0.005, Sq: 0.008}
)

// LoadFunc reports the instantaneous demand of a leaf load in watts.
type LoadFunc func() float64

// Node is one element of the distribution tree. Interior nodes aggregate
// children; leaf demand comes from Loads (e.g. server.Power closures).
type Node struct {
	name     string
	kind     Kind
	ratedW   float64
	surgeW   float64 // short-term ceiling (UPS surge withstand); 0 = ratedW
	loss     LossModel
	children []*Node
	loads    []LoadFunc
	capW     float64 // active power cap; 0 = uncapped
}

// NewNode builds a distribution node. ratedW must be finite and
// positive: no draw exceeds a NaN or infinite rating, so no capacity
// check could fire against one.
func NewNode(name string, kind Kind, ratedW float64, loss LossModel) (*Node, error) {
	if !finite(ratedW) {
		return nil, fmt.Errorf("power: node %q rated %v W must be finite", name, ratedW)
	}
	if ratedW <= 0 {
		return nil, fmt.Errorf("power: node %q rated %v W must be positive", name, ratedW)
	}
	return &Node{name: name, kind: kind, ratedW: ratedW, surgeW: ratedW, loss: loss}, nil
}

// SetSurge sets the short-term surge ceiling (finite, ≥ rated).
func (n *Node) SetSurge(w float64) error {
	if !finite(w) {
		return fmt.Errorf("power: surge %v must be finite", w)
	}
	if w < n.ratedW {
		return fmt.Errorf("power: surge %v below rating %v", w, n.ratedW)
	}
	n.surgeW = w
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// AddChild attaches a downstream distribution node.
func (n *Node) AddChild(c *Node) { n.children = append(n.children, c) }

// AddLoad attaches a leaf demand source.
func (n *Node) AddLoad(f LoadFunc) { n.loads = append(n.loads, f) }

// Name reports the node name.
func (n *Node) Name() string { return n.name }

// Kind reports the node tier.
func (n *Node) Kind() Kind { return n.kind }

// RatedW reports the node's rated capacity in watts.
func (n *Node) RatedW() float64 { return n.ratedW }

// SetCap sets a power cap in watts on this node's output (0 clears it).
// Capping is advisory at this layer: the flow report flags Capped nodes,
// and enforcement (throttling servers) is the macro layer's job — exactly
// the cyber-physical coordination the paper calls for.
func (n *Node) SetCap(w float64) { n.capW = w }

// Cap reports the active cap (0 = none).
func (n *Node) Cap() float64 { return n.capW }

// Flow is the evaluated power state of one node.
type Flow struct {
	Name string
	Kind Kind
	// OutW is the power delivered to children and loads.
	OutW float64
	// InW is the power drawn from upstream (OutW + LossW).
	InW float64
	// LossW is this node's conversion/distribution loss.
	LossW float64
	// Utilization is OutW / rated.
	Utilization float64
	// Overloaded marks output above the rating.
	Overloaded bool
	// SurgeExceeded marks output above even the surge ceiling.
	SurgeExceeded bool
	// CapExceeded marks output above an active cap.
	CapExceeded bool
	// Children holds the downstream flows.
	Children []Flow
}

// Evaluate computes the power flow for the subtree rooted at n.
func (n *Node) Evaluate() Flow {
	var buf []Flow
	return n.EvaluateInto(&buf)
}

// EvaluateInto is Evaluate with every Children slice of the returned
// tree carved from *buf, which is replaced by a larger one when it holds
// fewer flows than the subtree has nodes below n. A caller that keeps
// *buf across calls evaluates the tree without allocating; each call
// overwrites the flows the previous one returned.
func (n *Node) EvaluateInto(buf *[]Flow) Flow {
	need := n.descendants()
	if cap(*buf) < need {
		*buf = make([]Flow, need)
	}
	var f Flow
	n.evaluate(&f, (*buf)[:need])
	return f
}

// AppendLoads appends the raw reading of every leaf load in the subtree
// rooted at n to dst, in the order Evaluate reads them and before it
// clamps negative demand to zero, and reports how many nodes the subtree
// has, n included. Ratings and loss models are fixed at construction, so
// while the node count and the readings hold bit for bit, the subtree
// evaluates to the same flows, save for the flags SetSurge and SetCap
// can move.
func (n *Node) AppendLoads(dst []float64) ([]float64, int) {
	nodes := 1
	for _, c := range n.children {
		var k int
		dst, k = c.AppendLoads(dst)
		nodes += k
	}
	for _, l := range n.loads {
		dst = append(dst, l())
	}
	return dst, nodes
}

// descendants counts the nodes below n.
func (n *Node) descendants() int {
	d := len(n.children)
	for _, c := range n.children {
		d += c.descendants()
	}
	return d
}

// evaluate computes n's flow into *dst, with its Children carved from
// the front of buf and its descendants' from what follows, and returns
// the unused rest of buf. Each child is evaluated in its carved slot, so
// no flow is copied.
func (n *Node) evaluate(dst *Flow, buf []Flow) []Flow {
	k := len(n.children)
	childFlows, rest := buf[:k:k], buf[k:]
	var out float64
	for i, c := range n.children {
		rest = c.evaluate(&childFlows[i], rest)
		out += childFlows[i].InW
	}
	for _, l := range n.loads {
		v := l()
		if v < 0 {
			v = 0
		}
		out += v
	}
	loss := n.loss.Loss(out, n.ratedW)
	dst.Name, dst.Kind = n.name, n.kind
	dst.OutW, dst.InW, dst.LossW = out, out+loss, loss
	dst.Utilization = out / n.ratedW
	dst.Overloaded = out > n.ratedW
	dst.SurgeExceeded = out > n.surgeW
	dst.CapExceeded = n.capW > 0 && out > n.capW
	dst.Children = childFlows
	return rest
}

// OutputW computes the power delivered by this node (Flow.OutW) without
// building the Flow report — the cheap read for control loops that only
// need the draw, e.g. per-rack cap enforcement.
func (n *Node) OutputW() float64 {
	var out float64
	for _, c := range n.children {
		co := c.OutputW()
		out += co + c.loss.Loss(co, c.ratedW)
	}
	for _, l := range n.loads {
		v := l()
		if v < 0 {
			v = 0
		}
		out += v
	}
	return out
}

// TotalLoss sums losses over the subtree.
func (f Flow) TotalLoss() float64 {
	total := f.LossW
	for _, c := range f.Children {
		total += c.TotalLoss()
	}
	return total
}

// CriticalPower is the power reaching the leaf loads ("useful work",
// paper §2.1): subtree output minus downstream distribution losses.
func (f Flow) CriticalPower() float64 {
	return f.OutW - f.childLosses()
}

func (f Flow) childLosses() float64 {
	var total float64
	for _, c := range f.Children {
		total += c.LossW + c.childLosses()
	}
	return total
}

// Violations collects the names of nodes that are overloaded, over surge,
// or over an active cap anywhere in the subtree.
func (f Flow) Violations() []string {
	var v []string
	if f.Overloaded {
		v = append(v, f.Name+":overload")
	}
	if f.SurgeExceeded {
		v = append(v, f.Name+":surge")
	}
	if f.CapExceeded {
		v = append(v, f.Name+":cap")
	}
	for _, c := range f.Children {
		v = append(v, c.Violations()...)
	}
	return v
}

// String renders the flow tree for logs.
func (f Flow) String() string {
	var b strings.Builder
	f.render(&b, 0)
	return b.String()
}

func (f Flow) render(b *strings.Builder, depth int) {
	fmt.Fprintf(b, "%s%s[%s] out=%.0fW in=%.0fW loss=%.0fW util=%.0f%%",
		strings.Repeat("  ", depth), f.Name, f.Kind, f.OutW, f.InW, f.LossW, f.Utilization*100)
	if f.Overloaded {
		b.WriteString(" OVERLOAD")
	}
	b.WriteByte('\n')
	for _, c := range f.Children {
		c.render(b, depth+1)
	}
}

// ErrNoNodes is returned when a topology builder receives no elements.
var ErrNoNodes = errors.New("power: topology needs at least one element")

// Topology is a convenience builder for the canonical Figure-1 tree:
// one feed, one or more UPS units, PDUs under each UPS, racks under each
// PDU.
type Topology struct {
	// Feed is the root node.
	Feed *Node
	// UPSes, PDUs, Racks index the tiers for direct access.
	UPSes []*Node
	PDUs  []*Node
	Racks []*Node
	// Oversubscription records the sizing factor the tree was built
	// with: 1.0 means every tier carries its children at worst case, >1
	// means upstream tiers are deliberately undersized (§3.1) and
	// overloads are an accepted operating risk rather than a physics
	// violation.
	Oversubscription float64
}

// TopologyConfig sizes a canonical tree.
type TopologyConfig struct {
	// UPSCount, PDUsPerUPS, RacksPerPDU shape the tree.
	UPSCount, PDUsPerUPS, RacksPerPDU int
	// RackRatedW is each rack circuit's rating; upstream tiers are
	// rated to carry their children at the given oversubscription
	// factor (1.0 = sized for worst case; >1 = oversubscribed, §3.1).
	RackRatedW float64
	// Oversubscription divides upstream ratings: a value of 1.25 means
	// each PDU is rated for only 1/1.25 of the sum of its rack ratings.
	Oversubscription float64
}

// NewTopology builds the canonical tree with default loss models.
func NewTopology(cfg TopologyConfig) (*Topology, error) {
	if cfg.UPSCount <= 0 || cfg.PDUsPerUPS <= 0 || cfg.RacksPerPDU <= 0 {
		return nil, ErrNoNodes
	}
	if !finite(cfg.RackRatedW) {
		return nil, fmt.Errorf("power: rack rating %v must be finite", cfg.RackRatedW)
	}
	if cfg.RackRatedW <= 0 {
		return nil, fmt.Errorf("power: rack rating %v must be positive", cfg.RackRatedW)
	}
	if !finite(cfg.Oversubscription) {
		return nil, fmt.Errorf("power: oversubscription %v must be finite", cfg.Oversubscription)
	}
	if cfg.Oversubscription < 1 {
		return nil, fmt.Errorf("power: oversubscription %v must be >= 1", cfg.Oversubscription)
	}
	pduRated := cfg.RackRatedW * float64(cfg.RacksPerPDU) / cfg.Oversubscription
	upsRated := pduRated * float64(cfg.PDUsPerUPS) / cfg.Oversubscription
	feedRated := upsRated * float64(cfg.UPSCount) * 1.1 // feed headroom

	feed, err := NewNode("feed", KindFeed, feedRated, DefaultFeedLoss)
	if err != nil {
		return nil, err
	}
	topo := &Topology{Feed: feed, Oversubscription: cfg.Oversubscription}
	for u := 0; u < cfg.UPSCount; u++ {
		ups, err := NewNode(fmt.Sprintf("ups-%d", u), KindUPS, upsRated, DefaultUPSLoss)
		if err != nil {
			return nil, err
		}
		// UPS surge withstand: typically ~125 % briefly.
		if err := ups.SetSurge(upsRated * 1.25); err != nil {
			return nil, err
		}
		feed.AddChild(ups)
		topo.UPSes = append(topo.UPSes, ups)
		for p := 0; p < cfg.PDUsPerUPS; p++ {
			pdu, err := NewNode(fmt.Sprintf("pdu-%d-%d", u, p), KindPDU, pduRated, DefaultPDULoss)
			if err != nil {
				return nil, err
			}
			ups.AddChild(pdu)
			topo.PDUs = append(topo.PDUs, pdu)
			for r := 0; r < cfg.RacksPerPDU; r++ {
				rack, err := NewNode(fmt.Sprintf("rack-%d-%d-%d", u, p, r), KindRack, cfg.RackRatedW, DefaultRackLoss)
				if err != nil {
					return nil, err
				}
				pdu.AddChild(rack)
				topo.Racks = append(topo.Racks, rack)
			}
		}
	}
	return topo, nil
}

// HostableServers reports how many servers of the given peak wattage the
// UPS tier can host at worst case (every server at peak simultaneously) —
// the static sizing rule of §2.1 ("the maximum instantaneous power
// consumption from all servers allocated to each UPS unit determines how
// many servers can a data center host").
func (t *Topology) HostableServers(peakPerServerW float64) int {
	if peakPerServerW <= 0 {
		return 0
	}
	var capacity float64
	for _, u := range t.UPSes {
		capacity += u.RatedW()
	}
	// Discount downstream distribution losses at full load so the
	// counted servers actually fit: approximate with rack+PDU losses at
	// u=1.
	lossFrac := DefaultPDULoss.Fixed + DefaultPDULoss.Prop + DefaultPDULoss.Sq +
		DefaultRackLoss.Fixed + DefaultRackLoss.Prop + DefaultRackLoss.Sq
	usable := capacity / (1 + lossFrac)
	return int(math.Floor(usable / peakPerServerW))
}
