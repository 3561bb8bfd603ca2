package invariant

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/sim"
)

// rules lists the distinct rule names reported so far, without the
// sweep that Err and Violations run first.
func rules(c *Checker) []string {
	var out []string
	for _, v := range c.violations {
		if !slices.Contains(out, v.Rule) {
			out = append(out, v.Rule)
		}
	}
	return out
}

// bootedFleet builds an n-server fleet on an engine no checker rides,
// with its first on servers booted to active.
func bootedFleet(t testing.TB, n, on int) (*sim.Engine, *core.Fleet) {
	t.Helper()
	e := sim.NewEngine(1)
	cfg := server.DefaultConfig()
	f, err := core.NewFleet(e, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	f.SetTarget(on)
	if err := e.Run(cfg.BootDelay + time.Second); err != nil {
		t.Fatal(err)
	}
	if f.ActiveCount() != on {
		t.Fatalf("active = %d after boot, want %d", f.ActiveCount(), on)
	}
	return e, f
}

// TestReadingRules seeds the per-server bugs the server's own clamps
// prevent by fabricating readings, and requires each to be reported
// under its own rule and no other.
func TestReadingRules(t *testing.T) {
	ok := reading{name: "s", state: server.StateActive, util: 0.5, powerW: 240,
		energyJ: 1000, boots: 1, at: time.Minute, peakW: 300, bootJ: 20_000}
	cases := []struct {
		name string
		prev *reading
		r    func(r *reading)
		want string
	}{
		{name: "unknown state", r: func(r *reading) { r.state = 9; r.util = 0 }, want: "server-state"},
		{name: "utilization above one", r: func(r *reading) { r.util = 1.5 }, want: "server-utilization"},
		{name: "negative utilization", r: func(r *reading) { r.util = -0.1 }, want: "server-utilization"},
		{name: "utilization while booting", r: func(r *reading) { r.state = server.StateBooting }, want: "server-utilization"},
		{name: "power above peak", r: func(r *reading) { r.powerW = 301 }, want: "server-power-bounds"},
		{name: "NaN power", r: func(r *reading) { r.powerW = math.NaN() }, want: "server-power-bounds"},
		{name: "power while off", r: func(r *reading) { r.state, r.util = server.StateOff, 0 }, want: "server-power-bounds"},
		{name: "illegal transition", prev: &reading{state: server.StateOff, peakW: 300, bootJ: 20_000},
			r: func(r *reading) { r.energyJ, r.at, r.boots = 0, 0, 0 }, want: "server-legal-transition"},
		{name: "energy mismatch", prev: &ok,
			r: func(r *reading) { r.at += 10 * time.Second; r.energyJ += 240*10 + 5 }, want: "server-energy-integral"},
		{name: "energy decreased", prev: &ok,
			r: func(r *reading) { r.energyJ -= 1 }, want: "server-energy-integral"},
		{name: "sync time backwards", prev: &ok,
			r: func(r *reading) { r.at -= time.Second }, want: "server-energy-integral"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChecker()
			var tr serverTrack
			if tc.prev != nil {
				c.checkReading(0, &tr, *tc.prev)
				if len(c.violations) != 0 {
					t.Fatalf("previous reading flagged: %v", c.violations)
				}
			}
			r := ok
			tc.r(&r)
			c.checkReading(time.Minute, &tr, r)
			if got := rules(c); !slices.Equal(got, []string{tc.want}) {
				t.Fatalf("reported %v, want [%s]: %v", got, tc.want, c.violations)
			}
		})
	}
	c := NewChecker()
	var tr serverTrack
	c.checkReading(0, &tr, ok)
	next := ok
	next.at += 10 * time.Second
	next.energyJ += 240 * 10
	c.checkReading(time.Minute, &tr, next)
	if len(c.violations) != 0 {
		t.Fatalf("consistent readings flagged: %v", c.violations)
	}
}

// checkUntilSweep checks f once per simulated event until the fleet's
// next full sweep, requiring the change-set checks before it to report
// nothing.
func checkUntilSweep(t *testing.T, c *Checker, f *core.Fleet, now time.Duration) {
	t.Helper()
	for i := 1; i < f.Size(); i++ {
		c.CheckComponent(now, f)
		if len(c.violations) != 0 {
			t.Fatalf("reported at change-set check %d, before the sweep: %v", i, c.violations)
		}
	}
	c.CheckComponent(now, f)
}

// TestSkippedNotificationReportedAtNextSweep: a load change the fleet
// never hears marks no slot, so the change-set checks cannot see it; the
// next full sweep reports it as fleet-aggregates, and so does a sweep
// on Err.
func TestSkippedNotificationReportedAtNextSweep(t *testing.T) {
	for _, viaErr := range []bool{false, true} {
		e, f := bootedFleet(t, 8, 8)
		now := e.Now()
		c := NewChecker()
		c.CheckComponent(now, f) // first sight: sweep
		s := f.ServerAt(3)
		s.Watch(3, nil)
		s.SetUtilization(now, 0.7)
		if viaErr {
			if c.Err() == nil {
				t.Fatal("Err did not sweep")
			}
		} else {
			checkUntilSweep(t, c, f, now)
		}
		if got := rules(c); !slices.Equal(got, []string{"fleet-aggregates"}) {
			t.Fatalf("viaErr=%v: reported %v, want [fleet-aggregates]: %v", viaErr, got, c.violations)
		}
	}
}

// TestSilentBootReportedAtNextSweep: a server booted while unwatched,
// then watched again, jumped Off→Active in the checker's history with
// energy it never saw. The next sweep reports the illegal transition,
// the energy jump and the fleet's stale counts.
func TestSilentBootReportedAtNextSweep(t *testing.T) {
	e, f := bootedFleet(t, 8, 4)
	c := NewChecker()
	c.CheckComponent(e.Now(), f)
	s := f.ServerAt(6)
	s.Watch(6, nil)
	s.PowerOn(e)
	if err := e.Run(e.Now() + s.Config().BootDelay + time.Second); err != nil {
		t.Fatal(err)
	}
	if s.State() != server.StateActive {
		t.Fatalf("silent boot left the server %v", s.State())
	}
	s.Watch(6, f)
	checkUntilSweep(t, c, f, e.Now())
	for _, want := range []string{"server-legal-transition", "server-energy-integral", "fleet-aggregates"} {
		if !slices.Contains(rules(c), want) {
			t.Errorf("%s not reported: %v", want, c.violations)
		}
	}
}

// TestMisroutedNotificationDriftsAccounting: a server that notifies the
// wrong fleet drifts that fleet's counters away from its own servers'
// states, and the change-set check of the event reports fleet-accounting
// without waiting for a sweep.
func TestMisroutedNotificationDriftsAccounting(t *testing.T) {
	e, f := bootedFleet(t, 8, 4)
	other, err := core.NewFleet(e, server.DefaultConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker()
	c.CheckComponent(e.Now(), other)
	s := f.ServerAt(6)
	s.Watch(6, other)
	s.PowerOn(e)
	c.CheckComponent(e.Now(), other)
	if got := rules(c); !slices.Equal(got, []string{"fleet-accounting"}) {
		t.Fatalf("reported %v, want [fleet-accounting]: %v", got, c.violations)
	}
}

// armedFleet boots n servers with rack/zone groups, as inside a
// DataCenter, on an engine the checker rides.
func armedFleet(tb testing.TB, n int, pool *par.Pool) (*sim.Engine, *core.Fleet, *Checker) {
	tb.Helper()
	e := sim.NewEngine(1)
	c := NewChecker()
	c.Attach(e)
	cfg := server.DefaultConfig()
	f, err := core.NewFleet(e, cfg, n)
	if err != nil {
		tb.Fatal(err)
	}
	f.SetParallel(pool)
	rackOf := make([]int, n)
	zoneOf := make([]int, n)
	for i := range rackOf {
		rackOf[i] = i / 40
		zoneOf[i] = i % 4
	}
	if err := f.SetPowerGroups(rackOf, zoneOf, (n+39)/40, 4); err != nil {
		tb.Fatal(err)
	}
	f.SetTarget(n)
	if err := e.Run(cfg.BootDelay + time.Second); err != nil {
		tb.Fatal(err)
	}
	if err := c.Err(); err != nil {
		tb.Fatal(err)
	}
	return e, f, c
}

// TestShardedFleetArmedClean: a four-shard fleet dispatching over a
// 2-worker pool, with boots and sheds between rounds, stays clean under
// the armed checker, which reads change sets the shards recorded
// concurrently.
func TestShardedFleetArmedClean(t *testing.T) {
	pool := par.New(2)
	defer pool.Close()
	const n = 2048
	e, f, c := armedFleet(t, n, pool)
	capacity := server.DefaultConfig().Capacity
	k := 0
	e.Every(time.Minute, func(eng *sim.Engine) {
		k++
		switch k % 4 {
		case 1:
			f.SetTarget(n / 2)
		case 3:
			f.SetTarget(n)
		}
		f.Dispatch(eng.Now(), (0.2+0.1*float64(k%5))*float64(n)*capacity)
	})
	if err := e.Run(e.Now() + 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestArmedDispatchAllocationFree: once warm, a dispatch round over
// 10,000 servers plus the armed check of every server it changed
// allocates nothing, and neither does a full sweep.
func TestArmedDispatchAllocationFree(t *testing.T) {
	const n = 10_000
	e, f, c := armedFleet(t, n, nil)
	offered := 0.6 * float64(n) * server.DefaultConfig().Capacity
	now := e.Now()
	round := func() {
		now += time.Second
		f.Dispatch(now, offered)
		c.CheckComponent(now, f)
	}
	round()
	if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
		t.Errorf("armed dispatch round allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(2, func() { _ = c.Err() }); allocs != 0 {
		t.Errorf("full sweep allocates %v times, want 0", allocs)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkArmedEvent measures the armed check of one event that changes
// a single server of an n-server fleet. Checked at O(changes), its cost
// stays roughly flat in n.
func BenchmarkArmedEvent(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e, f, c := armedFleet(b, n, nil)
			servers := f.Servers()
			now := e.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += time.Second
				servers[i%n].SetUtilization(now, float64(i%7)/7)
				c.CheckComponent(now, f)
			}
			b.StopTimer()
			if err := c.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
