package invariant

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/vm"
)

// countingCheckable proves the after-event hook actually fires.
type countingCheckable struct {
	calls int
	err   error
}

func (c *countingCheckable) CheckInvariants(time.Duration) error {
	c.calls++
	return c.err
}

func TestLegalTransitionTable(t *testing.T) {
	legal := [][2]server.State{
		{server.StateOff, server.StateBooting},
		{server.StateBooting, server.StateActive},
		{server.StateBooting, server.StateShuttingDown},
		{server.StateBooting, server.StateOff},
		{server.StateActive, server.StateShuttingDown},
		{server.StateActive, server.StateOff},
		{server.StateShuttingDown, server.StateOff},
		{server.StateOff, server.StateOff},
		{server.StateActive, server.StateActive},
	}
	for _, p := range legal {
		if !legalTransition(p[0], p[1]) {
			t.Errorf("%v -> %v should be legal", p[0], p[1])
		}
	}
	illegal := [][2]server.State{
		{server.StateOff, server.StateActive},       // no boot skipped
		{server.StateOff, server.StateShuttingDown}, // nothing to shut down
		{server.StateShuttingDown, server.StateActive},
		{server.StateShuttingDown, server.StateBooting},
		{server.StateActive, server.StateBooting}, // no double-boot
	}
	for _, p := range illegal {
		if legalTransition(p[0], p[1]) {
			t.Errorf("%v -> %v should be illegal", p[0], p[1])
		}
	}
}

// TestCleanFleetLifecycle drives a fleet through boots, load, aborted
// boots, graceful shutdowns, and a thermal trip, with the checker armed.
// A legal run must produce zero violations, and the hook must demonstrably
// fire.
func TestCleanFleetLifecycle(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewChecker()
	c.Attach(e)
	counter := &countingCheckable{}
	e.Register(counter)

	cfg := server.DefaultConfig()
	fleet, err := core.NewFleet(e, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	fleet.SetTarget(6)
	e.Every(time.Minute, func(eng *sim.Engine) {
		now := eng.Now()
		switch int(now / time.Minute) {
		case 2:
			fleet.SetTarget(3) // sheds boots in flight (abort path)
		case 4:
			fleet.SetTarget(5)
		case 6:
			// Thermal trip on the first active server.
			for _, s := range fleet.Servers() {
				if s.State() == server.StateActive {
					s.ObserveInlet(now, s.Config().TripTempC+5)
					break
				}
			}
		}
		fleet.Dispatch(now, 0.5*float64(fleet.ActiveCount())*cfg.Capacity)
	})
	if err := e.Run(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("legal lifecycle flagged: %v", err)
	}
	if counter.calls == 0 {
		t.Fatal("after-event hook never fired; checker is inert")
	}
	if counter.calls != int(e.Processed()) {
		t.Errorf("checkable called %d times, %d events fired", counter.calls, e.Processed())
	}
}

// TestTopologyOverloadViolation: a tree sized without oversubscription
// whose rack draws more than its rating is a physics violation and must
// fail with the named rule.
func TestTopologyOverloadViolation(t *testing.T) {
	topo, err := power.NewTopology(power.TopologyConfig{
		UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: 1,
		RackRatedW: 1000, Oversubscription: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo.Racks[0].AddLoad(func() float64 { return 1500 })

	e := sim.NewEngine(1)
	c := NewChecker()
	c.Attach(e)
	e.Register(topo)
	e.After(time.Second, func(*sim.Engine) {})
	if err := e.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	verr := c.Err()
	if verr == nil {
		t.Fatal("overloaded un-oversubscribed rack not flagged")
	}
	var v Violation
	if !errors.As(verr, &v) {
		t.Fatalf("error %v does not unwrap to a Violation", verr)
	}
	if v.Rule != "power-tier-capacity" {
		t.Errorf("rule = %q, want power-tier-capacity", v.Rule)
	}
	if !strings.Contains(verr.Error(), "invariant power-tier-capacity violated") {
		t.Errorf("error %q does not name the invariant", verr)
	}
}

// TestOversubscribedTopologyAllowed: the same overload under an engaged
// oversubscription policy is an accepted risk, not a violation (§3.1).
func TestOversubscribedTopologyAllowed(t *testing.T) {
	topo, err := power.NewTopology(power.TopologyConfig{
		UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: 2,
		RackRatedW: 1000, Oversubscription: 1.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Oversubscription != 1.25 {
		t.Fatalf("Oversubscription = %v, want 1.25", topo.Oversubscription)
	}
	// Both racks at rating: the PDU (rated 2000/1.25 = 1600 W) overloads.
	for _, r := range topo.Racks {
		r.AddLoad(func() float64 { return 1000 })
	}
	if !topo.Feed.Evaluate().Children[0].Children[0].Overloaded {
		t.Fatal("test scenario should overload the PDU")
	}
	c := NewChecker()
	c.CheckComponent(0, topo)
	if err := c.Err(); err != nil {
		t.Fatalf("oversubscribed overload should be allowed, got %v", err)
	}
}

// wideTopology builds a 2-UPS / 10-PDU / 100-rack tree without
// oversubscription whose rack r draws loads[r] watts.
func wideTopology(t *testing.T) (topo *power.Topology, loads []float64) {
	t.Helper()
	topo, err := power.NewTopology(power.TopologyConfig{
		UPSCount: 2, PDUsPerUPS: 5, RacksPerPDU: 10,
		RackRatedW: 10_000, Oversubscription: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	loads = make([]float64, len(topo.Racks))
	for r, rack := range topo.Racks {
		loads[r] = 4000 + 30*float64(r)
		rack.AddLoad(func() float64 { return loads[r] })
	}
	return topo, loads
}

// TestTopologyCheckAllocationFree: the armed checker reads the power
// tree's loads after every event and evaluates the tree when they
// change, so once its buffers are sized a topology check allocates
// nothing, whether it skips the walk or re-walks the tree.
func TestTopologyCheckAllocationFree(t *testing.T) {
	topo, loads := wideTopology(t)
	c := NewChecker()
	c.CheckComponent(0, topo)
	skipped := testing.AllocsPerRun(100, func() { c.CheckComponent(time.Second, topo) })
	step := 0.0
	walked := testing.AllocsPerRun(100, func() {
		step++
		for r := range loads {
			loads[r] = 4000 + 30*float64(r) + step
		}
		c.CheckComponent(2*time.Second, topo)
	})
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped topology check allocates %v times per call, want 0", skipped)
	}
	if walked != 0 {
		t.Errorf("re-walked topology check allocates %v times per call, want 0", walked)
	}
}

// topoStep changes a power tree or the loads wideTopology gave its racks
// before one check.
type topoStep func(topo *power.Topology, loads []float64)

// hold returns n steps that change nothing.
func hold(n int) []topoStep {
	return make([]topoStep, n) // a nil step changes nothing
}

// setRack returns a step that makes rack r draw w watts.
func setRack(r int, w float64) topoStep {
	return func(_ *power.Topology, loads []float64) { loads[r] = w }
}

// setOversubscription returns a step that records a new sizing factor
// on the tree, which decides whether overloads are violations.
func setOversubscription(x float64) topoStep {
	return func(topo *power.Topology, _ []float64) { topo.Oversubscription = x }
}

// steps joins scripts into one.
func steps(parts ...[]topoStep) []topoStep {
	var out []topoStep
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// checkTopoScript checks topo once per step with one armed checker, and
// with a fresh checker per step, which has no history and so walks the
// tree every time. The armed checker must report what the fresh ones
// report between them, cut at the cap. It returns how many of the armed
// checks evaluated the tree.
func checkTopoScript(t *testing.T, topo *power.Topology, loads []float64, script []topoStep) int {
	t.Helper()
	armed := NewChecker()
	var want []Violation
	walks := 0
	for i, step := range script {
		if step != nil {
			step(topo, loads)
		}
		now := time.Duration(i) * time.Second
		// A walk evaluates into the flow buffer; a skipped check leaves
		// a cleared one cleared.
		armed.flows = nil
		armed.CheckComponent(now, topo)
		if armed.flows != nil {
			walks++
		}
		ref := NewChecker()
		ref.CheckComponent(now, topo)
		want = append(want, ref.Violations()...)
	}
	want = want[:min(len(want), armed.max)]
	if got := armed.Violations(); !slices.Equal(got, want) {
		t.Fatalf("armed checker reported %d violations, fresh checkers %d:\narmed %v\nfresh %v", len(got), len(want), got, want)
	}
	return walks
}

// TestTopologySkipIsExact: over scripted leaf-reading sequences, a
// checker that skips the walk of an unchanged clean tree reports exactly
// what checkers that walk at every event report, rule, time and detail,
// and walks only after a change or a violation.
func TestTopologySkipIsExact(t *testing.T) {
	nan, neg0 := math.NaN(), math.Copysign(0, -1)
	everyRack := func(dw float64) topoStep {
		return func(_ *power.Topology, loads []float64) {
			for r := range loads {
				loads[r] = 4000 + 30*float64(r) + dw
			}
		}
	}
	// spare hangs an unloaded rack under the first PDU whose fixed loss
	// alone pushes the PDU over its 100 kW rating: the readings stay the
	// same, only the node count says the tree changed.
	spareRack, err := power.NewNode("spare", power.KindRack, 60_000, power.LossModel{Fixed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spare := func(topo *power.Topology, _ []float64) { topo.PDUs[0].AddChild(spareRack) }
	extraLoad := func(topo *power.Topology, _ []float64) {
		topo.Racks[5].AddLoad(func() float64 { return 7000 })
	}
	cases := []struct {
		name   string
		script []topoStep
		walks  int
	}{
		{"steady", hold(50), 1},
		{"one rack over its rating and back",
			steps(hold(5), []topoStep{setRack(7, 12_000)}, hold(5), []topoStep{setRack(7, 4210)}, hold(5)), 8},
		{"every rack stepped",
			[]topoStep{everyRack(0), everyRack(1), everyRack(2), everyRack(-3), everyRack(1e-9)}, 5},
		{"NaN and negative readings",
			steps([]topoStep{setRack(3, nan)}, hold(2), []topoStep{setRack(3, -500), setRack(3, -500), setRack(3, -600),
				setRack(3, 0), setRack(3, neg0), setRack(3, 4090)}, hold(2)), 8},
		{"oversubscription flipped",
			steps([]topoStep{setRack(0, 12_000), setOversubscription(1.25)}, hold(3),
				[]topoStep{setOversubscription(1)}, hold(2), []topoStep{setOversubscription(1.25)}, hold(2)), 6},
		{"standing overload past the cap", steps([]topoStep{setRack(0, 12_000)}, hold(30)), 31},
		{"load added after the first check", steps(hold(2), []topoStep{extraLoad}, hold(3)), 5},
		{"rack added after the first check", steps(hold(2), []topoStep{spare}, hold(3)), 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, loads := wideTopology(t)
			if walks := checkTopoScript(t, topo, loads, tc.script); walks != tc.walks {
				t.Errorf("armed checker walked the tree %d times, want %d", walks, tc.walks)
			}
		})
	}
}

// TestEvaluateIntoReusedBufferMatchesEvaluate: a flow tree evaluated into
// a reused buffer after the loads change is, node for node, the tree a
// fresh Evaluate builds.
func TestEvaluateIntoReusedBufferMatchesEvaluate(t *testing.T) {
	topo, loads := wideTopology(t)
	var buf []power.Flow
	topo.Feed.EvaluateInto(&buf)
	for r := range loads {
		loads[r] = 11_000 - 70*float64(r) // overloads the first racks
	}
	got := topo.Feed.EvaluateInto(&buf)
	if &got.Children[0] != &buf[0] {
		t.Fatal("second evaluation did not reuse the buffer")
	}
	want := topo.Feed.Evaluate()
	if len(want.Violations()) == 0 {
		t.Fatal("test scenario should overload some racks")
	}
	nodes := 0
	var same func(got, want power.Flow)
	same = func(got, want power.Flow) {
		nodes++
		gk, wk := got.Children, want.Children
		got.Children, want.Children = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("node %s: reused buffer %+v, fresh %+v", want.Name, got, want)
		}
		if len(gk) != len(wk) {
			t.Fatalf("node %s: %d children, want %d", want.Name, len(gk), len(wk))
		}
		for i := range wk {
			same(gk[i], wk[i])
		}
	}
	same(got, want)
	if nodes != 1+2+10+100 {
		t.Errorf("compared %d nodes, want 113", nodes)
	}
}

// TestCheckableViolation: a component that reports a broken internal
// invariant surfaces as a named component-invariant violation.
func TestCheckableViolation(t *testing.T) {
	c := NewChecker()
	bad := &countingCheckable{err: fmt.Errorf("synthetic breakage")}
	c.CheckComponent(3*time.Second, bad)
	verr := c.Err()
	if verr == nil {
		t.Fatal("checkable error not reported")
	}
	var v Violation
	if !errors.As(verr, &v) || v.Rule != "component-invariant" || v.At != 3*time.Second {
		t.Fatalf("got %+v, want component-invariant at 3s", verr)
	}
}

// TestHostCheckable: vm.Host participates via the structural interface,
// and an overcommitted host (capacity shrank under live placements, as a
// broken migration would produce) is caught.
func TestHostCheckable(t *testing.T) {
	var _ Checkable = (*vm.Host)(nil)

	h, err := vm.NewHost("h0", vm.Resources{CPU: 8, MemGB: 64, DiskIOPS: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Place(&vm.VM{Name: "a", Size: vm.Resources{CPU: 4, MemGB: 16}}); err != nil {
		t.Fatal(err)
	}
	c := NewChecker()
	c.CheckComponent(0, h)
	if err := c.Err(); err != nil {
		t.Fatalf("consistent host flagged: %v", err)
	}

	h.Capacity.CPU = 2 // capacity yanked out from under the placement
	c.CheckComponent(time.Minute, h)
	verr := c.Err()
	if verr == nil {
		t.Fatal("overcommitted host not flagged")
	}
	var v Violation
	if !errors.As(verr, &v) || v.Rule != "component-invariant" {
		t.Fatalf("got %+v, want component-invariant", verr)
	}
}

// TestRoomClean: an attached room under steady heat stays inside the
// envelope with clamped setpoints.
func TestRoomClean(t *testing.T) {
	room, err := cooling.TwoZoneRoom(0.9, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(1)
	c := NewChecker()
	c.Attach(e)
	room.Attach(e) // self-registers
	if err := room.SetZoneHeat(0, 20_000); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("steady room flagged: %v", err)
	}
}

// TestViolationCap: a hot loop of violations stops accumulating at the
// internal cap instead of flooding memory, and Err reports the overflow.
func TestViolationCap(t *testing.T) {
	c := NewChecker()
	bad := &countingCheckable{err: fmt.Errorf("always broken")}
	for i := 0; i < 100; i++ {
		c.CheckComponent(time.Duration(i), bad)
	}
	if n := len(c.Violations()); n > 32 {
		t.Fatalf("violations grew unbounded: %d", n)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "more violations") {
		t.Fatalf("Err() = %v, want overflow note", err)
	}
}

// TestEnergyIntegralTracksBoots: the energy rule must reconcile the boot
// impulse, not flag it — a fleet that boots repeatedly stays clean.
func TestEnergyIntegralTracksBoots(t *testing.T) {
	e := sim.NewEngine(7)
	c := NewChecker()
	c.Attach(e)
	cfg := server.DefaultConfig()
	cfg.BootDelay = 30 * time.Second
	fleet, err := core.NewFleet(e, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	on := true
	fleet.SetTarget(2)
	e.Every(2*time.Minute, func(*sim.Engine) {
		on = !on
		if on {
			fleet.SetTarget(2)
		} else {
			fleet.SetTarget(0)
		}
	})
	if err := e.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("boot cycling flagged: %v", err)
	}
	fleet.Sync(time.Hour)
	if fleet.Servers()[0].Boots() < 2 {
		t.Fatal("test scenario should boot repeatedly")
	}
}
