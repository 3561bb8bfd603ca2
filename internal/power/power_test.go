package power

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestLossModel(t *testing.T) {
	m := LossModel{Fixed: 0.01, Prop: 0.02, Sq: 0.03}
	// At zero output only the fixed loss remains.
	if got := m.Loss(0, 1000); math.Abs(got-10) > 1e-9 {
		t.Errorf("no-load loss = %v, want 10", got)
	}
	// At full load all terms apply.
	if got := m.Loss(1000, 1000); math.Abs(got-60) > 1e-9 {
		t.Errorf("full-load loss = %v, want 60", got)
	}
	// Degenerate rating yields zero loss rather than NaN.
	if got := m.Loss(100, 0); got != 0 {
		t.Errorf("zero-rating loss = %v, want 0", got)
	}
}

func TestLossEfficiencyImprovesWithLoad(t *testing.T) {
	// The per-watt overhead of fixed losses shrinks as load grows — the
	// reason lightly-loaded (overprovisioned) facilities waste energy.
	m := DefaultUPSLoss
	effAt := func(u float64) float64 {
		out := u * 1000
		return out / (out + m.Loss(out, 1000))
	}
	if effAt(0.2) >= effAt(0.8) {
		t.Errorf("efficiency at 20%% (%v) not below efficiency at 80%% (%v)",
			effAt(0.2), effAt(0.8))
	}
}

func TestNodeValidation(t *testing.T) {
	if _, err := NewNode("x", KindPDU, 0, DefaultPDULoss); err == nil {
		t.Error("zero rating should error")
	}
	n, err := NewNode("x", KindUPS, 100, DefaultUPSLoss)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetSurge(50); err == nil {
		t.Error("surge below rating should error")
	}
	if err := n.SetSurge(150); err != nil {
		t.Errorf("valid surge rejected: %v", err)
	}
}

// buildSmallTree returns feed -> ups -> pdu -> rack with one adjustable
// leaf load on the rack.
func buildSmallTree(t *testing.T, load *float64) (*Node, *Node) {
	t.Helper()
	feed, err := NewNode("feed", KindFeed, 100_000, DefaultFeedLoss)
	if err != nil {
		t.Fatal(err)
	}
	ups, err := NewNode("ups", KindUPS, 50_000, DefaultUPSLoss)
	if err != nil {
		t.Fatal(err)
	}
	pdu, err := NewNode("pdu", KindPDU, 20_000, DefaultPDULoss)
	if err != nil {
		t.Fatal(err)
	}
	rack, err := NewNode("rack", KindRack, 10_000, DefaultRackLoss)
	if err != nil {
		t.Fatal(err)
	}
	feed.AddChild(ups)
	ups.AddChild(pdu)
	pdu.AddChild(rack)
	rack.AddLoad(func() float64 { return *load })
	return feed, rack
}

func TestFlowConservation(t *testing.T) {
	// Input at every node equals output plus loss; output equals the
	// sum of child inputs — power is conserved through the tree.
	load := 5000.0
	feed, _ := buildSmallTree(t, &load)
	var verify func(f Flow)
	verify = func(f Flow) {
		if math.Abs(f.InW-(f.OutW+f.LossW)) > 1e-9 {
			t.Errorf("%s: in %v != out %v + loss %v", f.Name, f.InW, f.OutW, f.LossW)
		}
		var childIn float64
		for _, c := range f.Children {
			childIn += c.InW
			verify(c)
		}
		if len(f.Children) > 0 && math.Abs(f.OutW-childIn) > 1e-9 {
			t.Errorf("%s: out %v != child inputs %v", f.Name, f.OutW, childIn)
		}
	}
	verify(feed.Evaluate())
}

func TestFlowConservationProperty(t *testing.T) {
	check := func(raw float64) bool {
		load := math.Abs(math.Mod(raw, 1e4))
		if math.IsNaN(load) {
			return true
		}
		feed, err := NewNode("feed", KindFeed, 100_000, DefaultFeedLoss)
		if err != nil {
			return false
		}
		rack, err := NewNode("rack", KindRack, 10_000, DefaultRackLoss)
		if err != nil {
			return false
		}
		feed.AddChild(rack)
		rack.AddLoad(func() float64 { return load })
		f := feed.Evaluate()
		// Total input covers the leaf demand plus all losses.
		return math.Abs(f.InW-(load+f.TotalLoss())) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCriticalPower(t *testing.T) {
	load := 5000.0
	feed, _ := buildSmallTree(t, &load)
	f := feed.Evaluate()
	// Critical power as seen at the feed is the leaf demand: subtree
	// output minus downstream losses.
	if math.Abs(f.CriticalPower()-load) > 1e-6 {
		t.Errorf("critical power = %v, want %v", f.CriticalPower(), load)
	}
	if f.InW <= load {
		t.Error("feed input should exceed critical power (losses)")
	}
}

func TestNegativeLoadClamped(t *testing.T) {
	rack, err := NewNode("rack", KindRack, 1000, DefaultRackLoss)
	if err != nil {
		t.Fatal(err)
	}
	rack.AddLoad(func() float64 { return -500 })
	f := rack.Evaluate()
	if f.OutW != 0 {
		t.Errorf("negative load leaked: out = %v", f.OutW)
	}
}

func TestOverloadSurgeCapFlags(t *testing.T) {
	load := 0.0
	_, rack := buildSmallTree(t, &load)
	if err := rack.SetSurge(12_000); err != nil {
		t.Fatal(err)
	}
	rack.SetCap(8000)

	load = 7000 // below everything
	f := rack.Evaluate()
	if f.Overloaded || f.SurgeExceeded || f.CapExceeded {
		t.Errorf("flags at 7kW: %+v", f)
	}
	load = 9000 // above cap only
	f = rack.Evaluate()
	if !f.CapExceeded || f.Overloaded {
		t.Errorf("flags at 9kW: %+v", f)
	}
	load = 11_000 // above rating, below surge
	f = rack.Evaluate()
	if !f.Overloaded || f.SurgeExceeded {
		t.Errorf("flags at 11kW: %+v", f)
	}
	load = 13_000 // beyond surge
	f = rack.Evaluate()
	if !f.SurgeExceeded {
		t.Errorf("flags at 13kW: %+v", f)
	}
	v := f.Violations()
	joined := strings.Join(v, ",")
	if !strings.Contains(joined, "rack:overload") || !strings.Contains(joined, "rack:surge") || !strings.Contains(joined, "rack:cap") {
		t.Errorf("violations = %v", v)
	}
	rack.SetCap(0)
	if rack.Cap() != 0 {
		t.Error("cap not cleared")
	}
}

func TestViolationsPropagateUpward(t *testing.T) {
	load := 60_000.0 // exceeds the 50 kW UPS
	feed, _ := buildSmallTree(t, &load)
	f := feed.Evaluate()
	found := false
	for _, v := range f.Violations() {
		if strings.HasPrefix(v, "ups:") {
			found = true
		}
	}
	if !found {
		t.Errorf("UPS overload not reported: %v", f.Violations())
	}
}

func TestTopologyShape(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{
		UPSCount:         2,
		PDUsPerUPS:       3,
		RacksPerPDU:      4,
		RackRatedW:       10_000,
		Oversubscription: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.UPSes) != 2 || len(topo.PDUs) != 6 || len(topo.Racks) != 24 {
		t.Fatalf("tree shape: %d UPS, %d PDU, %d racks", len(topo.UPSes), len(topo.PDUs), len(topo.Racks))
	}
	// With no oversubscription each PDU is rated for its racks.
	if topo.PDUs[0].RatedW() != 40_000 {
		t.Errorf("PDU rating = %v, want 40000", topo.PDUs[0].RatedW())
	}
	if topo.UPSes[0].RatedW() != 120_000 {
		t.Errorf("UPS rating = %v, want 120000", topo.UPSes[0].RatedW())
	}
}

func TestTopologyOversubscriptionShrinksUpstream(t *testing.T) {
	base, err := NewTopology(TopologyConfig{
		UPSCount: 1, PDUsPerUPS: 2, RacksPerPDU: 2,
		RackRatedW: 10_000, Oversubscription: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	over, err := NewTopology(TopologyConfig{
		UPSCount: 1, PDUsPerUPS: 2, RacksPerPDU: 2,
		RackRatedW: 10_000, Oversubscription: 1.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if over.PDUs[0].RatedW() >= base.PDUs[0].RatedW() {
		t.Error("oversubscription did not shrink PDU rating")
	}
	if over.UPSes[0].RatedW() >= base.UPSes[0].RatedW() {
		t.Error("oversubscription did not shrink UPS rating")
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewTopology(TopologyConfig{}); err == nil {
		t.Error("empty config should error")
	}
	if _, err := NewTopology(TopologyConfig{UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: 1, RackRatedW: 0, Oversubscription: 1}); err == nil {
		t.Error("zero rack rating should error")
	}
	if _, err := NewTopology(TopologyConfig{UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: 1, RackRatedW: 100, Oversubscription: 0.5}); err == nil {
		t.Error("oversubscription < 1 should error")
	}
}

// TestNonFiniteRatingsRejected: no draw exceeds a NaN or infinite
// rating or surge ceiling, so the tier-capacity rule could never fire on
// such a node. Each is rejected by name instead of accepted.
func TestNonFiniteRatingsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	node := func(w float64) func() error {
		return func() error {
			_, err := NewNode("x", KindPDU, w, DefaultPDULoss)
			return err
		}
	}
	surge := func(w float64) func() error {
		return func() error {
			n, err := NewNode("x", KindUPS, 100, DefaultUPSLoss)
			if err != nil {
				return err
			}
			return n.SetSurge(w)
		}
	}
	topo := func(rackW, over float64) func() error {
		return func() error {
			_, err := NewTopology(TopologyConfig{UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: 1,
				RackRatedW: rackW, Oversubscription: over})
			return err
		}
	}
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"node rated NaN", node(nan), `power: node "x" rated NaN W must be finite`},
		{"node rated +Inf", node(inf), `power: node "x" rated +Inf W must be finite`},
		{"node rated -Inf", node(-inf), `power: node "x" rated -Inf W must be finite`},
		{"surge NaN", surge(nan), "power: surge NaN must be finite"},
		{"surge +Inf", surge(inf), "power: surge +Inf must be finite"},
		{"surge -Inf", surge(-inf), "power: surge -Inf must be finite"},
		{"rack rating NaN", topo(nan, 1), "power: rack rating NaN must be finite"},
		{"rack rating +Inf", topo(inf, 1), "power: rack rating +Inf must be finite"},
		{"rack rating -Inf", topo(-inf, 1), "power: rack rating -Inf must be finite"},
		{"oversubscription NaN", topo(1000, nan), "power: oversubscription NaN must be finite"},
		{"oversubscription +Inf", topo(1000, inf), "power: oversubscription +Inf must be finite"},
		{"oversubscription -Inf", topo(1000, -inf), "power: oversubscription -Inf must be finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); err == nil || err.Error() != tc.want {
				t.Errorf("error %v, want %q", err, tc.want)
			}
		})
	}
}

func TestHostableServers(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{
		UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: 10,
		RackRatedW: 10_000, Oversubscription: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := topo.HostableServers(300)
	// 100 kW UPS / 300 W servers = 333 before losses; losses trim ~4 %.
	if n < 300 || n > 333 {
		t.Errorf("hostable servers = %d, want ~320", n)
	}
	if topo.HostableServers(0) != 0 {
		t.Error("zero-wattage servers should host 0")
	}
}

func TestFlowString(t *testing.T) {
	load := 12_000.0 // overload the 10 kW rack
	feed, _ := buildSmallTree(t, &load)
	s := feed.Evaluate().String()
	if !strings.Contains(s, "feed[feed]") || !strings.Contains(s, "OVERLOAD") {
		t.Errorf("flow string missing content:\n%s", s)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{KindFeed: "feed", KindUPS: "ups", KindPDU: "pdu", KindRack: "rack", Kind(99): "kind(99)"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
