package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/onoff"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// testFacility assembles a small managed facility — the same wiring
// cmd/dcsim uses, shrunk for test speed — and returns it unstarted.
func testFacility(t testing.TB, seed int64, fleetSize int) (*sim.Engine, *core.Manager, *core.DataCenter) {
	t.Helper()
	srvCfg := server.DefaultConfig()
	e := sim.NewEngine(seed)
	perRack := 5
	racks := (fleetSize + perRack - 1) / perRack
	zones := (racks + 1) / 2
	roomCfg := cooling.RoomConfig{PhysicsTick: cooling.DefaultPhysicsTick}
	for z := 0; z < zones; z++ {
		roomCfg.Zones = append(roomCfg.Zones, cooling.DefaultZone(fmt.Sprintf("z%d", z)))
		roomCfg.Sensitivity = append(roomCfg.Sensitivity, []float64{0.9})
	}
	roomCfg.CRACs = []cooling.CRACConfig{cooling.DefaultCRAC("c0")}
	zoneOfRack := make([]int, racks)
	for r := range zoneOfRack {
		zoneOfRack[r] = r / 2
	}
	dc, err := core.NewDataCenter(e, core.DataCenterConfig{
		Name:           "serve-test",
		ServerConfig:   srvCfg,
		ServersPerRack: perRack,
		Topology: power.TopologyConfig{
			UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: racks,
			RackRatedW: float64(perRack) * srvCfg.PeakPower * 1.1, Oversubscription: 1,
		},
		Room:        roomCfg,
		ZoneOfRack:  zoneOfRack,
		Plant:       cooling.DefaultPlantConfig(),
		SampleEvery: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Attach(); err != nil {
		t.Fatal(err)
	}
	n := dc.Fleet().Size()
	sla := 100 * time.Millisecond
	mgr, err := core.NewManagerForFleet(e, core.ManagerConfig{
		ServerConfig:   srvCfg,
		FleetSize:      n,
		Queue:          workload.DefaultQueueModel(),
		SLA:            sla,
		DecisionPeriod: time.Minute,
		Mode:           core.ModeCoordinated,
		Trigger:        onoff.DelayTrigger{High: sla * 6 / 10, Low: sla / 4, StepUp: 1, StepDown: 1, Min: 1, Max: n},
		InitialOn:      n / 2,
	}, dc.Fleet(), func(now time.Duration) float64 {
		return 0.3 * float64(n) * srvCfg.Capacity
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, mgr, dc
}

func testServer(t testing.TB, seed int64, fleetSize int, opts Options) (*Server, *core.DataCenter) {
	t.Helper()
	e, mgr, dc := testFacility(t, seed, fleetSize)
	mgr.Start()
	s, err := NewServer(Source{Engine: e, Fleet: mgr.Fleet(), Manager: mgr, DC: dc}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, dc
}

// scrape fetches one /metrics exposition and returns it parsed into a
// sample map (series -> value) after running it through the linter.
func scrape(t *testing.T, url string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := Lint(body); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, body)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples, string(body)
}

// TestServeEndToEnd drives a facility through virtual hours and checks
// the exposition: parseable, lint-clean, carrying the full metric set,
// with counters monotone across scrapes.
func TestServeEndToEnd(t *testing.T) {
	s, dc := testServer(t, 1, 10, Options{Speedup: 3600})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.AdvanceTo(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	first, body := scrape(t, ts.URL)
	for _, name := range []string{
		"dcsim_sim_time_seconds",
		"dcsim_sim_events_total",
		"dcsim_fleet_power_watts",
		"dcsim_fleet_energy_joules_total",
		"dcsim_servers_active",
		"dcsim_thermal_trips_total",
		"dcsim_rebase_drift_watts",
		"dcsim_rebase_drift_max_watts",
		"dcsim_pue_ratio",
		"dcsim_feed_power_watts",
		"dcsim_carbon_intensity",
		"dcsim_carbon_grams_total",
		"dcsim_frame_age_seconds",
		`dcsim_policy_mode{mode="coordinated"}`,
		`dcsim_switches_total{direction="on"}`,
	} {
		if _, ok := first[name]; !ok {
			t.Errorf("exposition missing %s\n%s", name, body)
		}
	}
	if got := first["dcsim_sim_time_seconds"]; got != 7200 {
		t.Errorf("sim time = %v, want 7200", got)
	}
	if first["dcsim_fleet_power_watts"] <= 0 {
		t.Error("fleet power should be positive with servers active")
	}
	if first["dcsim_pue_ratio"] <= 1 {
		t.Errorf("PUE = %v, want > 1", first["dcsim_pue_ratio"])
	}
	// Zone series carry the room's zone names as labels.
	for z := 0; z < dc.Room().Zones(); z++ {
		key := fmt.Sprintf("dcsim_zone_inlet_celsius{zone=%q}", dc.Room().ZoneName(z))
		if v, ok := first[key]; !ok || v <= 0 {
			t.Errorf("zone inlet %s missing or non-physical (%v)", key, v)
		}
	}
	// Frame-backed inlets: the frame row must be fresh (≤ one sample
	// period old).
	if age := first["dcsim_frame_age_seconds"]; age < 0 || age > dc.SampleEvery().Seconds() {
		t.Errorf("frame age = %v s, want within [0, %v]", age, dc.SampleEvery().Seconds())
	}

	if err := s.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	second, _ := scrape(t, ts.URL)
	for _, counter := range []string{
		"dcsim_sim_events_total",
		"dcsim_fleet_energy_joules_total",
		"dcsim_carbon_grams_total",
		"dcsim_decisions_total",
		"dcsim_scrapes_total",
	} {
		if second[counter] <= first[counter] {
			t.Errorf("%s not monotone: %v -> %v", counter, first[counter], second[counter])
		}
	}
	if second["dcsim_thermal_trips_total"] < first["dcsim_thermal_trips_total"] {
		t.Error("trips counter decreased")
	}

	// JSON snapshot agrees with the exposition.
	resp, err := http.Get(ts.URL + "/api/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.SimTimeSeconds != second["dcsim_sim_time_seconds"] {
		t.Errorf("snapshot sim time %v != metrics %v", snap.SimTimeSeconds, second["dcsim_sim_time_seconds"])
	}
	if snap.EnergyJoules != second["dcsim_fleet_energy_joules_total"] {
		t.Errorf("snapshot energy %v != metrics %v", snap.EnergyJoules, second["dcsim_fleet_energy_joules_total"])
	}
	if snap.Facility == nil || len(snap.Facility.Zones) != dc.Room().Zones() {
		t.Fatalf("snapshot facility zones = %+v", snap.Facility)
	}
}

// TestSSEStream subscribes to /api/v1/stream, advances virtual time
// across several emit boundaries, and checks the events arrive ordered
// and well-formed.
func TestSSEStream(t *testing.T) {
	s, _ := testServer(t, 2, 10, Options{Speedup: 3600, EmitEvery: 15 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/v1/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	type event struct {
		id   uint64
		snap Snapshot
	}
	events := make(chan event, 32)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var ev event
		var sawData bool
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				id, err := strconv.ParseUint(line[4:], 10, 64)
				if err != nil {
					t.Errorf("bad id line %q", line)
					return
				}
				ev.id = id
			case line == "event: snapshot":
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(line[6:]), &ev.snap); err != nil {
					t.Errorf("bad data line: %v", err)
					return
				}
				sawData = true
			case line == "":
				if sawData {
					events <- ev
					ev, sawData = event{}, false
				}
			default:
				t.Errorf("unexpected SSE line %q", line)
				return
			}
		}
	}()

	// First event is the immediate current-state snapshot.
	var first event
	select {
	case first = <-events:
	case <-ctx.Done():
		t.Fatal("no initial SSE event")
	}

	// Cross 8 emit boundaries; one event per AdvanceTo step.
	for i := 1; i <= 8; i++ {
		if err := s.AdvanceTo(time.Duration(i) * 15 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	lastID, lastSim := first.id, first.snap.SimTimeSeconds
	for n := 0; n < 8; n++ {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream closed early")
			}
			if ev.id <= lastID {
				t.Fatalf("event ids not increasing: %d after %d", ev.id, lastID)
			}
			if ev.snap.SimTimeSeconds < lastSim {
				t.Fatalf("sim time went backwards: %v after %v", ev.snap.SimTimeSeconds, lastSim)
			}
			if ev.snap.Seq != ev.id {
				t.Fatalf("event id %d != snapshot seq %d", ev.id, ev.snap.Seq)
			}
			lastID, lastSim = ev.id, ev.snap.SimTimeSeconds
		case <-ctx.Done():
			t.Fatalf("timed out after %d events", n)
		}
	}
}

// TestScrapeWhileSimulating is the -race soak: the pacer advances the
// simulation, building and encoding SSE frames for a live subscriber,
// while scrapers hammer every endpoint concurrently. The geo subtest
// paces a parallel federation, whose site engines step on its pool's
// workers as under dcsim -sites.
func TestScrapeWhileSimulating(t *testing.T) {
	opts := Options{
		Speedup:   7200,
		Horizon:   2 * time.Hour,
		Slice:     2 * time.Millisecond,
		EmitEvery: 15 * time.Second,
	}
	t.Run("server", func(t *testing.T) {
		s, _ := testServer(t, 3, 10, opts)
		soakWhileScraping(t, s, "dcsim_fleet_energy_joules_total", func(data []byte) (float64, error) {
			var snap Snapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				return 0, err
			}
			return snap.SimTimeSeconds, physicalInlets(snap.Facility)
		})
		if got := s.Snapshot().SimTimeSeconds; got != opts.Horizon.Seconds() {
			t.Fatalf("horizon not reached: %v", got)
		}
	})
	t.Run("geo", func(t *testing.T) {
		cfg := geoTestConfig(3, 2)
		cfg.Parallel = true
		fed, err := geo.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fed.Close)
		s, err := NewGeoServer(fed, opts)
		if err != nil {
			t.Fatal(err)
		}
		soakWhileScraping(t, s, "dcsim_geo_energy_joules_total", func(data []byte) (float64, error) {
			var snap GeoSnapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				return 0, err
			}
			for _, site := range snap.Sites {
				if err := physicalInlets(site.Facility); err != nil {
					return 0, fmt.Errorf("site %s: %w", site.Site, err)
				}
			}
			return snap.SimTimeSeconds, nil
		})
		if got := s.Snapshot().SimTimeSeconds; got != opts.Horizon.Seconds() {
			t.Fatalf("horizon not reached: %v", got)
		}
	})
}

// physicalInlets rejects a zone inlet no facility could reach, the mark
// of a torn read. A nil facility has none to check.
func physicalInlets(f *FacilitySnapshot) error {
	if f == nil {
		return nil
	}
	for _, z := range f.Zones {
		if z.InletC < -50 || z.InletC > 200 {
			return fmt.Errorf("non-physical inlet %v in zone %s (torn read?)", z.InletC, z.Zone)
		}
	}
	return nil
}

// soakWhileScraping runs s to its horizon while a stream subscriber,
// three /metrics scrapers and a snapshot poller read it. decode checks
// one JSON snapshot, a stream event's data or a snapshot body, and
// returns its virtual time; energy names the exposition counter that
// must never decrease.
func soakWhileScraping(t *testing.T, s interface {
	Handler() http.Handler
	Run(ctx context.Context) error
	Shutdown()
}, energy string, decode func(data []byte) (float64, error)) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The stream subscriber decodes every data line; ids must not
	// decrease and simulated time must not go back. It is primed (the
	// handler has subscribed) before the pacer starts, so every emit is
	// published while handlers build their own snapshots.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/v1/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	primed := make(chan struct{})
	streamed := make(chan int, 1)
	go func() {
		events := 0
		var lastID uint64
		lastSim := -1.0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				id, err := strconv.ParseUint(line[4:], 10, 64)
				if err != nil || id < lastID {
					t.Errorf("SSE id %q after %d (%v)", line, lastID, err)
				}
				lastID = id
			case strings.HasPrefix(line, "data: "):
				if sim, err := decode([]byte(line[6:])); err != nil {
					t.Errorf("SSE data: %v", err)
				} else if sim < lastSim {
					t.Errorf("SSE sim time went back: %v after %v", sim, lastSim)
				} else {
					lastSim = sim
				}
				if events++; events == 1 {
					close(primed)
				}
			}
		}
		streamed <- events
	}()
	select {
	case <-primed:
	case <-ctx.Done():
		t.Fatal("no priming SSE event")
	}

	paceDone := make(chan error, 1)
	go func() { paceDone <- s.Run(ctx) }()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last float64
			for {
				select {
				case <-stop:
					return
				default:
				}
				samples, _ := scrape(t, ts.URL)
				if e := samples[energy]; e < last {
					t.Errorf("%s regressed: %v -> %v", energy, last, e)
					return
				} else {
					last = e
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/api/v1/snapshot")
			if err != nil {
				t.Error(err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				_, err = decode(body)
			}
			if err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()

	err = <-paceDone
	close(stop)
	wg.Wait()
	s.Shutdown() // ends the stream
	if events := <-streamed; events < 2 {
		t.Errorf("stream carried %d events, want the priming one and cadence events", events)
	}
	if err != nil {
		t.Fatalf("pacer: %v", err)
	}
}

// TestSlicedEqualsBatch pins the determinism contract the live mode
// advertises: pacing the engine through many uneven AdvanceTo slices
// yields bit-identical state and telemetry to one monolithic Run over
// the same horizon at the same seed.
func TestSlicedEqualsBatch(t *testing.T) {
	const horizon = 3 * time.Hour

	// Batch: one Run call.
	eA, mgrA, dcA := testFacility(t, 7, 10)
	mgrA.Start()
	if err := eA.Run(horizon); err != nil {
		t.Fatal(err)
	}

	// Live: the same facility advanced through ragged slices.
	sB, dcB := testServer(t, 7, 10, Options{Speedup: 1})
	var at time.Duration
	for i := 0; at < horizon; i++ {
		at += time.Duration(1+i%7) * 13 * time.Second
		if at > horizon {
			at = horizon
		}
		if err := sB.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := sB.src.Engine.Processed(), eA.Processed(); got != want {
		t.Fatalf("events processed: sliced %d, batch %d", got, want)
	}
	if got, want := dcB.Fleet().EnergyJ(), dcA.Fleet().EnergyJ(); got != want {
		t.Fatalf("energy: sliced %v, batch %v", got, want)
	}
	if got, want := dcB.Fleet().PowerW(), dcA.Fleet().PowerW(); got != want {
		t.Fatalf("power: sliced %v, batch %v", got, want)
	}

	// Telemetry frames byte-identical: compare every framed key at raw
	// resolution over the retention window and hourly over the run.
	keys := []string{"srv0000/power", "srv0003/util", "zone00/inlet"}
	for _, key := range keys {
		for _, res := range []telemetry.Resolution{telemetry.ResRaw, telemetry.ResHour} {
			a, errA := dcA.Store().Query(key, 0, horizon+time.Second, res)
			b, errB := dcB.Store().Query(key, 0, horizon+time.Second, res)
			if errA != nil || errB != nil {
				t.Fatalf("query %s: %v / %v", key, errA, errB)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("telemetry diverged for %s at res %v", key, res)
			}
		}
	}
}

// TestOptionsValidation covers the option defaulting and rejection
// paths.
func TestOptionsValidation(t *testing.T) {
	e, mgr, dc := testFacility(t, 11, 5)
	src := Source{Engine: e, Fleet: mgr.Fleet(), Manager: mgr, DC: dc}
	for _, opts := range []Options{
		{Speedup: 0},
		{Speedup: -1},
		{Speedup: 1, Horizon: -time.Hour},
		{Speedup: 1, Slice: -time.Second},
		{Speedup: 1, EmitEvery: -time.Second},
	} {
		if _, err := NewServer(src, opts); err == nil {
			t.Errorf("NewServer(%+v) should reject", opts)
		}
	}
	if _, err := NewServer(Source{}, Options{Speedup: 1}); err == nil {
		t.Error("nil engine should reject")
	}
	s, err := NewServer(src, Options{Speedup: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Options()
	if o.Slice != 50*time.Millisecond || o.EmitEvery != 15*time.Second {
		t.Errorf("defaults not applied: %+v", o)
	}
	if o.Carbon.BaseGPerKWh <= 0 {
		t.Error("carbon model not defaulted")
	}
	// A geo horizon past the federation's would never end Run.
	fed, err := geo.New(geoTestConfig(11, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	_, err = NewGeoServer(fed, Options{Speedup: 1, Horizon: 5 * time.Hour})
	if err == nil || !strings.Contains(err.Error(), "5h0m0s") || !strings.Contains(err.Error(), "4h0m0s") {
		t.Errorf("geo horizon past the federation's: err %v, want one naming 5h0m0s and 4h0m0s", err)
	}
}
