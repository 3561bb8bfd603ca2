package server

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// loadedBlock builds a 12-slot block in 3 racks and 2 zones with eight
// slots booted and loaded, one of them shut down by a trip and one with
// parked cores.
func loadedBlock(t *testing.T) *Block {
	t.Helper()
	b, err := NewBlock(DefaultConfig(), 12)
	if err != nil {
		t.Fatal(err)
	}
	rackOf, zoneOf := make([]int, 12), make([]int, 12)
	for i := range rackOf {
		rackOf[i], zoneOf[i] = i/4, i%2
	}
	b.SetGroups(rackOf, zoneOf, 3, 2)
	e := sim.NewEngine(1)
	servers := b.Servers()
	for _, s := range servers[:8] {
		s.PowerOn(e)
	}
	if err := e.Run(b.cfg.BootDelay + time.Second); err != nil {
		t.Fatal(err)
	}
	for i, s := range servers[:8] {
		s.SetUtilization(e.Now(), 0.1*float64(i))
	}
	if err := servers[5].ParkCores(e.Now(), 3); err != nil {
		t.Fatal(err)
	}
	if !servers[2].ObserveInlet(e.Now(), b.cfg.TripTempC+1) {
		t.Fatal("trip did not take")
	}
	if err := b.VerifyAggregates(1e-7, 1e-6); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestVerifyAggregatesNamesEachCorruption corrupts every maintained
// aggregate and derived column in turn and requires VerifyAggregates to
// name it; restoring the value makes the block verify again.
func TestVerifyAggregatesNamesEachCorruption(t *testing.T) {
	b := loadedBlock(t)
	floatCases := []struct {
		want string
		v    *float64
	}{
		{"slot 3 power column", &b.power[3]},
		{"slot 5 idle column", &b.idle[5]},
		{"slot 6 capacity column", &b.avail[6]},
		{"maintained power", &b.sums.PowerW},
		{"maintained energy", &b.sums.EnergyJ},
		{"maintained rack 1 power", &b.sums.Rack[1]},
		{"maintained zone 0 power", &b.sums.Zone[0]},
	}
	for _, tc := range floatCases {
		old := *tc.v
		*tc.v += 1 + 1e-3*math.Abs(old)
		requireNamed(t, b, tc.want)
		*tc.v = old
	}
	intCases := []struct {
		want string
		v    *int
	}{
		{"maintained on count", &b.sums.On},
		{"maintained active count", &b.sums.Active},
		{"maintained trips", &b.sums.Trips},
		{"maintained boots", &b.sums.Boots},
	}
	for _, tc := range intCases {
		*tc.v++
		requireNamed(t, b, tc.want)
		*tc.v--
	}
	// A boot that bypassed the counter: a fleet would keep that server
	// past its live bound, out of dispatch.
	b.boots[9]++
	requireNamed(t, b, "maintained boots")
	b.boots[9]--
	if err := b.VerifyAggregates(1e-7, 1e-6); err != nil {
		t.Fatalf("restored block: %v", err)
	}
}

func requireNamed(t *testing.T, b *Block, want string) {
	t.Helper()
	err := b.VerifyAggregates(1e-7, 1e-6)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("corrupted %q: VerifyAggregates = %v", want, err)
	}
}

// TestCompletionsFireAtDeadlines: boots and shutdowns issued at
// different times, with an aborted boot among them, complete each slot
// at its own deadline on one shared engine, and a slot's second boot
// reuses the completion handler its first bound.
func TestCompletionsFireAtDeadlines(t *testing.T) {
	cfg := DefaultConfig()
	b, err := NewBlock(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	solo := MustNew(cfg)
	e := sim.NewEngine(1)
	s := b.Servers()
	s[2].PowerOn(e)
	solo.PowerOn(e)
	if err := e.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	s[0].PowerOn(e)
	s[2].PowerOff(e) // aborts the boot; its boot completion still fires
	if err := e.Run(cfg.BootDelay + 5*time.Second); err != nil {
		t.Fatal(err)
	}
	want := []State{StateBooting, StateOff, StateOff, StateOff}
	for i, w := range want {
		if got := s[i].State(); got != w {
			t.Errorf("slot %d at %v: state %v, want %v", i, e.Now(), got, w)
		}
	}
	if solo.State() != StateActive || solo.LastSyncAt() != cfg.BootDelay {
		t.Errorf("standalone server: %v synced at %v, want active at %v", solo.State(), solo.LastSyncAt(), cfg.BootDelay)
	}
	if err := e.Run(cfg.BootDelay + 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if s[0].State() != StateActive || s[0].LastSyncAt() != cfg.BootDelay+10*time.Second {
		t.Errorf("slot 0: %v synced at %v, want active at %v", s[0].State(), s[0].LastSyncAt(), cfg.BootDelay+10*time.Second)
	}
	if err := b.VerifyAggregates(1e-7, 1e-6); err != nil {
		t.Fatal(err)
	}
	s[2].PowerOn(e)
	if allocs := testing.AllocsPerRun(1, func() {
		s[2].PowerOff(e)
		s[2].PowerOn(e)
	}); allocs != 0 {
		t.Errorf("a warm slot's shutdown and boot allocate %v objects, want 0", allocs)
	}
}

// TestRebaseMatchesSlotFold holds Rebase's one-pass scan to the
// slot-by-slot fold. A 1,000-slot block maps its slots to 7 racks and 3
// zones in runs of random length, so each group recurs after others,
// and its power and energy columns hold random values. The rebased total
// power and energy and every rack and zone sum must equal, bit for bit,
// sums folded one slot at a time in slot order.
func TestRebaseMatchesSlotFold(t *testing.T) {
	const n, racks, zones = 1000, 7, 3
	b, err := NewBlock(DefaultConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rackOf, zoneOf := make([]int, n), make([]int, n)
	for i := 0; i < n; {
		r, z := rng.Intn(racks), rng.Intn(zones)
		for end := min(n, i+1+rng.Intn(20)); i < end; i++ {
			rackOf[i], zoneOf[i] = r, z
		}
	}
	b.SetGroups(rackOf, zoneOf, racks, zones)
	for i := range b.power {
		b.power[i], b.energy[i] = 300*rng.Float64(), 1e7*rng.Float64()
	}
	var pw, en float64
	rack, zone := make([]float64, racks), make([]float64, zones)
	for i, p := range b.power {
		pw += p
		en += b.energy[i]
		rack[rackOf[i]] += p
		zone[zoneOf[i]] += p
	}
	b.Rebase()
	s := b.Sums()
	if math.Float64bits(s.PowerW) != math.Float64bits(pw) || math.Float64bits(s.EnergyJ) != math.Float64bits(en) {
		t.Fatalf("rebased %v W, %v J; slot fold %v W, %v J", s.PowerW, s.EnergyJ, pw, en)
	}
	for r := range rack {
		if math.Float64bits(s.Rack[r]) != math.Float64bits(rack[r]) {
			t.Errorf("rack %d rebased to %v W, slot fold %v W", r, s.Rack[r], rack[r])
		}
	}
	for z := range zone {
		if math.Float64bits(s.Zone[z]) != math.Float64bits(zone[z]) {
			t.Errorf("zone %d rebased to %v W, slot fold %v W", z, s.Zone[z], zone[z])
		}
	}
}
