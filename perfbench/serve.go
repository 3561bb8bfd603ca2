package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/onoff"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// serveSize shapes the live-serving workload.
type serveSize struct {
	fleet int
	span  time.Duration
}

var (
	serveFull = serveSize{fleet: 10_000, span: 2 * time.Hour}
	serveToy  = serveSize{fleet: 200, span: 20 * time.Minute}
)

const (
	serveCadence = time.Minute // manager decisions
	// serveSpeedup and serveQuantum are dcsim -serve's defaults (-speedup
	// 60 and the pacer's 50ms wall quantum); one AdvanceTo covers their
	// product, serveSlice, of virtual time, as the pacer's step does.
	serveSpeedup = 60
	serveQuantum = 50 * time.Millisecond
	serveSlice   = serveSpeedup * serveQuantum
	// scrapeRate is the client's open-loop request rate (requests per
	// host second) and every snapshotEvery-th request is a JSON snapshot,
	// the rest /metrics. Neither comes from a documented deployment: they
	// are a fixed probe load, well below what one connection sustains, so
	// latency reflects the server rather than a growing backlog.
	scrapeRate    = 25
	snapshotEvery = 10
)

func serveRep(o options, seed int64, tr *tracer, root int) repResult {
	sz := serveFull
	if o.toy {
		sz = serveToy
	}
	return runServe(sz, seed, tr, root)
}

// serveStack is the `dcsim -serve -facility -users -retry budget` stack:
// a facility of 10-server racks (one cooling zone per two racks, one
// CRAC, 15 s telemetry), admission control with a budget retry loop and
// breaker, the coordinated manager, and the live server around them.
type serveStack struct {
	e    *sim.Engine
	pool *par.Pool
	dc   *core.DataCenter
	mgr  *core.Manager
	rl   *workload.RetryLoop
	adm  *workload.Admission
	srv  *serve.Server
}

func buildServeStack(sz serveSize, seed int64) (*serveStack, error) {
	st := &serveStack{e: sim.NewEngine(seed), pool: par.New(runtime.GOMAXPROCS(0))}
	srvCfg := server.DefaultConfig()
	// The dcsim diurnal (15%–50% of capacity, peak at 14:00), phase-
	// shifted by the seed so the span starts in the morning ramp.
	rng := rand.New(rand.NewSource(seed))
	startH := 6 + 2*rng.Float64()
	demand := func(now time.Duration) float64 {
		h := startH + now.Hours()
		frac := 0.15 + 0.35*0.5*(1+math.Cos(2*math.Pi*(h-14)/24))
		return frac * float64(sz.fleet) * srvCfg.Capacity
	}
	adm, err := workload.NewAdmission(workload.DefaultAdmissionConfig())
	if err != nil {
		return nil, err
	}
	rcfg := workload.DefaultRetryConfig(workload.RetryBudget)
	rcfg.Breaker = workload.DefaultBreakerConfig()
	rl, err := workload.NewRetryLoop(rcfg, adm, st.e.RNG().Fork("retry"))
	if err != nil {
		return nil, err
	}
	st.adm, st.rl = adm, rl
	classes := workload.DefaultRequestClasses()
	mix := workload.DefaultClassMix()
	mgrCfg := core.ManagerConfig{
		ServerConfig:   srvCfg,
		FleetSize:      sz.fleet,
		Queue:          workload.DefaultQueueModel(),
		SLA:            100 * time.Millisecond,
		DecisionPeriod: serveCadence,
		Mode:           core.ModeCoordinated,
		DVFSTarget:     0.8,
		Trigger: onoff.DelayTrigger{
			High: 60 * time.Millisecond, Low: 25 * time.Millisecond,
			StepUp: 1, StepDown: 1, Min: 1, Max: sz.fleet,
		},
		InitialOn: sz.fleet / 2,
		Pool:      st.pool,
		Retry:     rl,
		ClassDemand: func(now time.Duration) [workload.NumClasses]float64 {
			var shares, fresh [workload.NumClasses]float64
			mix.Split(demand(now)/srvCfg.Capacity, &shares)
			for c := range fresh {
				fresh[c] = workload.UsersPerTick(shares[c]/classes[c].ServiceTime.Seconds(), serveCadence)
			}
			return fresh
		},
	}

	const perRack = 10
	racks := (sz.fleet + perRack - 1) / perRack
	zones := (racks + 1) / 2
	room := cooling.RoomConfig{PhysicsTick: cooling.DefaultPhysicsTick, CRACs: []cooling.CRACConfig{cooling.DefaultCRAC("c0")}}
	for z := 0; z < zones; z++ {
		room.Zones = append(room.Zones, cooling.DefaultZone(fmt.Sprintf("z%d", z)))
		room.Sensitivity = append(room.Sensitivity, []float64{0.9})
	}
	zoneOfRack := make([]int, racks)
	for r := range zoneOfRack {
		zoneOfRack[r] = r / 2
	}
	plant := cooling.DefaultPlantConfig()
	plant.FanRatedW = 50 * float64(sz.fleet)
	st.dc, err = core.NewDataCenter(st.e, core.DataCenterConfig{
		Name:           "serve",
		ServerConfig:   srvCfg,
		ServersPerRack: perRack,
		Topology: power.TopologyConfig{
			UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: racks,
			RackRatedW: perRack * srvCfg.PeakPower * 1.1, Oversubscription: 1,
		},
		Room:        room,
		ZoneOfRack:  zoneOfRack,
		Plant:       plant,
		SampleEvery: 15 * time.Second,
		Pool:        st.pool,
	})
	if err != nil {
		return nil, err
	}
	if _, err := st.dc.Attach(); err != nil {
		return nil, err
	}
	st.mgr, err = core.NewManagerForFleet(st.e, mgrCfg, st.dc.Fleet(), demand)
	if err != nil {
		return nil, err
	}
	st.mgr.Start()
	st.srv, err = serve.NewServer(serve.Source{Engine: st.e, Fleet: st.dc.Fleet(), Manager: st.mgr, DC: st.dc},
		serve.Options{Speedup: serveSpeedup, Slice: serveQuantum, Horizon: sz.span})
	return st, err
}

// scrapeLog is what the scrape client observed in one rep. It is written
// by the client goroutine only and read after the client has exited.
type scrapeLog struct {
	latMS, lateMS []float64
	bytes         int64
	ops, failed   int
	problems      []string
	// bodies are the response bodies, checked after the timed section so
	// the benchmark's own checking is not charged to the server.
	bodies []scrapeBody
}

type scrapeBody struct {
	path string
	body []byte
}

func (l *scrapeLog) fail(format string, args ...any) {
	l.failed++
	if len(l.problems) < 5 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// scrape runs the open-loop client: request k is due at start+k/rate and
// is sent then (or at once, if the previous one is still running), on one
// keep-alive connection. Latency is timed from the due time, so a stall
// also counts against the requests queued behind it. The client stops
// sending once done is closed (after at least one request).
func scrape(base string, start time.Time, done <-chan struct{}, log *scrapeLog) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	const interval = time.Second / scrapeRate
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-done:
				t.Stop()
				return
			case <-t.C:
			}
		} else if k > 0 {
			select {
			case <-done:
				return
			default:
			}
		}
		log.lateMS = append(log.lateMS, float64(time.Since(due))/1e6)
		path := "/metrics"
		if k%snapshotEvery == snapshotEvery-1 {
			path = "/api/v1/snapshot"
		}
		log.ops++
		resp, err := client.Get(base + path)
		if err != nil {
			log.fail("GET %s: %v", path, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		log.latMS = append(log.latMS, float64(time.Since(due))/1e6)
		log.bytes += int64(len(body))
		switch {
		case err != nil:
			log.fail("read %s: %v", path, err)
		case resp.StatusCode != http.StatusOK:
			log.fail("GET %s: status %d", path, resp.StatusCode)
		default:
			log.bodies = append(log.bodies, scrapeBody{path, body})
		}
	}
}

// check lints every /metrics body and decodes every snapshot, whose
// simulated time must not go back.
func (l *scrapeLog) check() {
	lastSim := -1.0
	for _, b := range l.bodies {
		if b.path == "/metrics" {
			if err := serve.Lint(b.body); err != nil {
				l.fail("lint /metrics: %v", err)
			}
			continue
		}
		var snap serve.Snapshot
		if err := json.Unmarshal(b.body, &snap); err != nil {
			l.fail("decode snapshot: %v", err)
		} else if snap.SimTimeSeconds < lastSim {
			l.fail("snapshot time went back: %v after %v", snap.SimTimeSeconds, lastSim)
		} else {
			lastSim = snap.SimTimeSeconds
		}
	}
	l.bodies = nil
}

// subscribe reads the SSE stream until the server ends it, counting
// frames and checking their ids increase.
func subscribe(base string, ready chan<- error, frames *int, problems *[]string) {
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	resp, err := client.Get(base + "/api/v1/stream")
	if err != nil {
		ready <- err
		return
	}
	defer resp.Body.Close()
	ready <- nil
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	last := int64(-1)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "id: ") {
			continue
		}
		id, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
		switch {
		case err != nil:
			*problems = append(*problems, fmt.Sprintf("sse id %q: %v", line, err))
		case id < last:
			*problems = append(*problems, fmt.Sprintf("sse id %d after %d", id, last))
		}
		last = id
		*frames++
	}
}

// runServe is one rep of the live-serving workload. The timed part drives
// Server.AdvanceTo in fixed virtual slices back to back — the pacer's own
// call without its wall-clock sleep — while one client scrapes on an
// open-loop schedule and one subscriber reads the SSE stream.
func runServe(sz serveSize, seed int64, tr *tracer, root int) repResult {
	var r repResult
	r.ops = 1 // the run itself
	setupSpan := tr.begin("setup", root)
	t0 := time.Now()
	st, err := buildServeStack(sz, seed)
	if st != nil {
		defer st.pool.Close()
	}
	if err != nil {
		r.fail("build: %v", err)
		return r
	}
	r.workers = st.pool.Workers()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.fail("listen: %v", err)
		return r
	}
	base := "http://" + ln.Addr().String()
	httpSrv := &http.Server{Handler: st.srv.Handler()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = httpSrv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	var sseFrames int
	var sseProblems []string
	ready := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		subscribe(base, ready, &sseFrames, &sseProblems)
	}()
	if err := <-ready; err != nil {
		r.fail("subscribe: %v", err)
	}
	r.setup = time.Since(t0)
	tr.end(setupSpan)

	var log scrapeLog
	done := make(chan struct{})
	clientDone := make(chan struct{})
	mark := markMem()
	runSpan := tr.begin("serve.run", root)
	t1 := time.Now()
	go func() {
		defer close(clientDone)
		scrape(base, t1, done, &log)
	}()
	var advMS []float64
	for now := time.Duration(0); now < sz.span && err == nil; now += serveSlice {
		s := tr.begin("serve.advance", runSpan)
		ta := time.Now()
		err = st.srv.AdvanceTo(now + serveSlice)
		advMS = append(advMS, float64(time.Since(ta))/1e6)
		tr.end(s)
	}
	r.wall = time.Since(t1)
	close(done)
	<-clientDone
	tr.end(runSpan)
	r.mem = mark.since()
	r.srvHours = float64(sz.fleet) * sz.span.Hours()

	check := tr.begin("check", root)
	defer tr.end(check)
	if err != nil {
		r.fail("advance: %v", err)
	}
	var renderMetrics, renderSnapshot []float64
	if tr != nil {
		// Time the two renderers in-process, outside the timed span, on
		// the final state: a handler call is a snapshot under the read
		// lock plus the encoding.
		h := st.srv.Handler()
		for i := 0; i < 40; i++ {
			for _, p := range []string{"/metrics", "/api/v1/snapshot"} {
				rec := httptest.NewRecorder()
				s := tr.begin("serve.render", check)
				ts := time.Now()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
				ms := float64(time.Since(ts)) / 1e6
				tr.end(s)
				if p == "/metrics" {
					renderMetrics = append(renderMetrics, ms)
				} else {
					renderSnapshot = append(renderSnapshot, ms)
				}
			}
		}
	}
	st.srv.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := httpSrv.Shutdown(ctx); err != nil {
		r.fail("http shutdown: %v", err)
	}
	cancel()
	wg.Wait()

	log.check()
	r.ops += log.ops
	r.failed += log.failed
	r.problems = append(r.problems, log.problems...)
	for _, p := range sseProblems {
		r.fail("%s", p)
	}
	if sseFrames == 0 {
		r.fail("no SSE frames received")
	}
	if len(log.latMS) == 0 {
		r.fail("no scrapes completed")
	}
	snap := st.srv.Snapshot()
	if got := time.Duration(snap.SimTimeSeconds * float64(time.Second)); got != sz.span {
		r.fail("served to %v, want %v", got, sz.span)
	}
	if err := st.dc.Fleet().VerifyAggregates(); err != nil {
		r.fail("fleet aggregates: %v", err)
	}
	if err := st.rl.CheckInvariants(st.e.Now()); err != nil {
		r.fail("retry ledger: %v", err)
	}
	if err := st.adm.CheckInvariants(st.e.Now()); err != nil {
		r.fail("admission ledger: %v", err)
	}
	res := st.mgr.Result(st.e.Now())
	var d digest
	d.add("energy_kwh", res.EnergyKWh)
	d.addInt("switch_ons", int64(res.SwitchOns))
	d.addInt("switch_offs", int64(res.SwitchOffs))
	d.addInt("trips", int64(st.dc.Trips()))
	d.addInt("events", int64(snap.EventsProcessed))
	if u := res.Users; u != nil {
		d.add("offered", u.Offered)
		d.add("rejected", u.Rejected)
		d.add("goodput", u.Goodput)
		d.addInt("breaker_trips", u.BreakerTrips)
	}
	r.digest = d.sum()

	r.scrapeMS, r.lateMS = log.latMS, log.lateMS
	ons, offs := st.dc.Fleet().Switches()
	r.layers = map[string]float64{
		"sim.events":               float64(st.e.Processed()),
		"sim.events_per_s":         float64(st.e.Processed()) / r.wall.Seconds(),
		"sim.peak_pending":         float64(st.e.PeakPending()),
		"core.decisions":           float64(st.mgr.Decisions()),
		"core.switches":            float64(ons + offs),
		"core.trips":               float64(st.dc.Trips()),
		"core.rebases":             float64(st.dc.Fleet().Rebases()),
		"runtime.alloc_objects":    float64(r.mem.allocObjects),
		"runtime.gc_cycles":        float64(r.mem.gcCycles),
		"runtime.gc_cpu_s":         r.mem.gcCPU,
		"workload.retry_ticks":     float64(st.rl.Ticks()),
		"workload.breaker_trips":   float64(st.rl.Trips()),
		"serve.advance_p50_ms":     quantile(advMS, 0.5),
		"serve.advance_p99_ms":     quantile(advMS, 0.99),
		"serve.render_metrics_ms":  median(renderMetrics),
		"serve.render_snapshot_ms": median(renderSnapshot),
		"serve.scrape_bytes":       float64(log.bytes),
		"serve.sse_frames":         float64(sseFrames),
	}
	if fresh := st.rl.FreshUsers(); fresh > 0 {
		r.layers["workload.goodput_frac"] = st.rl.GoodputUsers() / (fresh + st.rl.RetriedUsers())
		r.layers["workload.retry_amplification"] = st.rl.RetryAmplification()
	}
	if off := st.adm.OfferedUsers(); off > 0 {
		r.layers["workload.rejected_frac"] = st.adm.RejectedUsers() / off
	}
	if s := st.dc.Store(); s != nil {
		ts := s.Stats()
		r.layers["telemetry.raw_points"] = float64(ts.RawPoints)
		r.layers["telemetry.agg_buckets"] = float64(ts.AggBuckets)
		r.layers["telemetry.dropped_raw"] = float64(ts.DroppedRaw)
	}
	return r
}
