package serve

import (
	"repro/internal/power"
	"repro/internal/workload"
)

// Snapshot is one consistent observation of the live simulation,
// captured under the pacer's read lock. It backs all three serving
// surfaces: the OpenMetrics exposition, the JSON snapshot API, and the
// SSE stream — so a scrape, a dashboard poll, and a stream event taken
// at the same instant agree on every number.
type Snapshot struct {
	// Seq increments per published snapshot (SSE event id).
	Seq uint64 `json:"seq"`
	// SimTimeSeconds is the virtual clock in seconds since start.
	SimTimeSeconds float64 `json:"sim_time_seconds"`
	// Speedup is the configured virtual-per-wall time ratio.
	Speedup float64 `json:"speedup"`
	// EventsProcessed counts fired kernel events.
	EventsProcessed uint64 `json:"events_processed"`

	// Mode is the active policy composition ("" without a manager).
	Mode string `json:"mode,omitempty"`
	// PState is the fleet-wide DVFS operating point.
	PState int `json:"pstate"`
	// Decisions counts manager decision cycles.
	Decisions int64 `json:"decisions"`
	// SLAViolationRate is the running fraction of decisions over SLA.
	SLAViolationRate float64 `json:"sla_violation_rate"`
	// WorstResponseSeconds is the worst observed response time.
	WorstResponseSeconds float64 `json:"worst_response_seconds"`

	// FleetSize, OnCount, ActiveCount describe the server pool.
	FleetSize   int `json:"fleet_size"`
	OnCount     int `json:"on_count"`
	ActiveCount int `json:"active_count"`
	// SwitchOns / SwitchOffs count cumulative power transitions.
	SwitchOns  int `json:"switch_ons"`
	SwitchOffs int `json:"switch_offs"`
	// PowerW is the instantaneous IT draw; EnergyJoules the cumulative
	// fleet energy through the last simulation event.
	PowerW       float64 `json:"power_w"`
	EnergyJoules float64 `json:"energy_joules"`
	// Trips counts protective thermal shutdowns.
	Trips int `json:"trips"`
	// RebaseDriftW / RebaseDriftMaxW expose the fleet's pre-clamp
	// aggregate drift (last rebase and lifetime high-water mark).
	RebaseDriftW    float64 `json:"rebase_drift_w"`
	RebaseDriftMaxW float64 `json:"rebase_drift_max_w"`

	// Facility adds the power-tree/cooling view when a DataCenter is
	// attached.
	Facility *FacilitySnapshot `json:"facility,omitempty"`

	// Carbon is the emissions view.
	Carbon CarbonSnapshot `json:"carbon"`

	// Users reports request-level user outcomes when an admission
	// controller is wired.
	Users *UsersSnapshot `json:"users,omitempty"`
}

// UsersSnapshot is the request-level (user outcome) slice of a
// snapshot: what happened to the people behind the load curve.
type UsersSnapshot struct {
	// OfferedTotal is cumulative fresh user arrivals; AdmittedTotal,
	// RejectedTotal, and DeferredBacklog partition it.
	OfferedTotal    float64 `json:"offered_total"`
	AdmittedTotal   float64 `json:"admitted_total"`
	RejectedTotal   float64 `json:"rejected_total"`
	DegradedTotal   float64 `json:"degraded_total"`
	DeferredBacklog float64 `json:"deferred_backlog"`
	// FairShareQ is the share granted on the latest admission tick;
	// ShedLevel the current user-facing shedding ladder level.
	FairShareQ float64 `json:"fair_share_q"`
	ShedLevel  int     `json:"shed_level"`
	// Retry reports the closed retry loop when one is wired.
	Retry *RetrySnapshot `json:"retry,omitempty"`
	// Classes carries per-class accounting and SLO-miss rates.
	Classes []UserClassSnapshot `json:"classes"`
}

// RetrySnapshot is the closed-loop (client retry) slice of the user
// view: how rejection feedback is amplifying load and what the
// admission-side circuit breaker is doing about it.
type RetrySnapshot struct {
	// FreshTotal counts first arrivals; RetriedTotal retry
	// re-presentations; AbandonedTotal users who exhausted their
	// attempts; GoodputTotal users that completed service.
	FreshTotal     float64 `json:"fresh_total"`
	RetriedTotal   float64 `json:"retried_total"`
	AbandonedTotal float64 `json:"abandoned_total"`
	GoodputTotal   float64 `json:"goodput_total"`
	// InRetry is users currently parked in retry backoff.
	InRetry float64 `json:"in_retry"`
	// Amplification is cumulative attempts over fresh arrivals (1 = no
	// retry inflation).
	Amplification float64 `json:"retry_amplification"`
	// BreakerState is "closed", "open", or "half-open"; BreakerTrips
	// counts closed-to-open transitions.
	BreakerState string `json:"breaker_state"`
	BreakerTrips int64  `json:"breaker_trips"`
}

// UserClassSnapshot is one service class's user accounting.
type UserClassSnapshot struct {
	Class         string  `json:"class"`
	AdmittedTotal float64 `json:"admitted_total"`
	RejectedTotal float64 `json:"rejected_total"`
	DegradedTotal float64 `json:"degraded_total"`
	SLOMissRate   float64 `json:"slo_miss_rate"`
}

// FacilitySnapshot is the facility-level (power tree + cooling) slice of
// a snapshot.
type FacilitySnapshot struct {
	// PUE is facility power over IT power at 18 °C and 0.5 RH outside
	// (0 when it could not be evaluated).
	PUE float64 `json:"pue"`
	// FeedInputW is the utility draw at the feed; DistLossW the total
	// distribution loss through the tree.
	FeedInputW float64 `json:"feed_input_w"`
	DistLossW  float64 `json:"dist_loss_w"`
	// Racks and Zones carry per-group power (and per-zone inlets).
	Racks []RackSnapshot `json:"racks"`
	Zones []ZoneSnapshot `json:"zones"`
	// FrameAtSeconds is the virtual timestamp of the telemetry frame
	// round the zone inlets were read from (-1 before the first round).
	FrameAtSeconds float64 `json:"frame_at_seconds"`
}

// RackSnapshot is one rack's instantaneous draw.
type RackSnapshot struct {
	Rack   string  `json:"rack"`
	PowerW float64 `json:"power_w"`
}

// ZoneSnapshot is one cooling zone's draw and inlet temperature.
type ZoneSnapshot struct {
	Zone   string  `json:"zone"`
	PowerW float64 `json:"power_w"`
	InletC float64 `json:"inlet_c"`
}

// CarbonSnapshot is the emissions slice of a snapshot.
type CarbonSnapshot struct {
	// IntensityGPerKWh is the grid intensity at the snapshot instant.
	IntensityGPerKWh float64 `json:"intensity_g_per_kwh"`
	// RateGPerHour is the instantaneous emission rate of the fleet.
	RateGPerHour float64 `json:"rate_g_per_hour"`
	// GramsTotal is cumulative emissions since serving started.
	GramsTotal float64 `json:"grams_total"`
}

// PUE is evaluated at these outside conditions, the ones batch runs
// report PUE at.
const (
	outsideC  = 18
	outsideRH = 0.5
)

// snapshotScratch holds the buffers a snapshot build uses: the
// telemetry frame row the zone inlets are read from and the power-tree
// flows. Handlers build snapshots concurrently under the read lock, so
// each handler build takes its own from a pool (by pointer, so Get and
// Put allocate nothing); the pacer keeps one for its emits.
type snapshotScratch struct {
	row  []float64
	flow []power.Flow
}

// resize returns s with length n, reusing its backing array when it is
// large enough. It never returns nil, so an empty section encodes as
// [] rather than null.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reuse returns p, or a new T when p is nil.
func reuse[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

// buildSnapshot fills snap with one simulation's state — the engine,
// fleet, manager, facility, and user slices. It is the one builder
// under every serving path: the single-facility server and each
// per-site section of the geo server, for handler snapshots (a zero snap)
// and the pacer's emits (the same snap every time). Every field is
// overwritten, but the Facility, Users and Retry structs and the Racks,
// Zones and Classes slices snap already holds are reused, so a snapshot
// kept across builds is rebuilt without allocating. The caller fills
// Seq, Speedup and the Carbon slice (pacing and emission metering live
// with the owner, not the simulation) and must hold whatever lock
// guards the source. Building only reads the simulation.
func buildSnapshot(snap *Snapshot, src Source, sc *snapshotScratch) {
	now := src.Engine.Now()
	fleet := src.Fleet
	driftLast, driftMax := fleet.RebaseDrift()
	fac, users := snap.Facility, snap.Users
	*snap = Snapshot{
		SimTimeSeconds:  now.Seconds(),
		EventsProcessed: src.Engine.Processed(),
		FleetSize:       fleet.Size(),
		OnCount:         fleet.OnCount(),
		ActiveCount:     fleet.ActiveCount(),
		PowerW:          fleet.PowerW(),
		EnergyJoules:    fleet.EnergyJ(),
		Trips:           fleet.Trips(),
		RebaseDriftW:    driftLast,
		RebaseDriftMaxW: driftMax,
	}
	snap.SwitchOns, snap.SwitchOffs = fleet.Switches()
	var adm *workload.Admission
	var rl *workload.RetryLoop
	if m := src.Manager; m != nil {
		snap.Mode = m.Mode().String()
		snap.PState = m.PState()
		snap.Decisions = m.Decisions()
		snap.SLAViolationRate = m.SLAViolationRate()
		snap.WorstResponseSeconds = m.WorstResponse().Seconds()
		adm, rl = m.Admission(), m.Retry()
	}
	if src.DC != nil {
		snap.Facility = reuse(fac)
		buildFacilitySnapshot(snap.Facility, src, sc)
	}
	if adm != nil {
		u := reuse(users)
		retry := u.Retry
		*u = UsersSnapshot{
			OfferedTotal:    adm.OfferedUsers(),
			AdmittedTotal:   adm.AdmittedUsers(),
			RejectedTotal:   adm.RejectedUsers(),
			DegradedTotal:   adm.DegradedUsers(),
			DeferredBacklog: adm.DeferredBacklog(),
			FairShareQ:      adm.Q(),
			ShedLevel:       adm.ShedLevel(),
			Classes:         resize(u.Classes, workload.NumClasses),
		}
		if rl != nil {
			u.Retry = reuse(retry)
			*u.Retry = RetrySnapshot{
				FreshTotal:     rl.FreshUsers(),
				RetriedTotal:   rl.RetriedUsers(),
				AbandonedTotal: rl.AbandonedUsers(),
				GoodputTotal:   rl.GoodputUsers(),
				InRetry:        rl.InRetryTotal(),
				Amplification:  rl.RetryAmplification(),
				BreakerState:   rl.State().String(),
				BreakerTrips:   rl.Trips(),
			}
		}
		for c := 0; c < workload.NumClasses; c++ {
			cl := workload.Class(c)
			u.Classes[c] = UserClassSnapshot{
				Class:         cl.String(),
				AdmittedTotal: adm.ClassAdmitted(cl),
				RejectedTotal: adm.ClassRejected(cl),
				DegradedTotal: adm.ClassDegraded(cl),
				SLOMissRate:   adm.SLOMissRate(cl),
			}
		}
		snap.Users = u
	}
}

// buildFacilitySnapshot fills the facility slice, reusing fs's Racks
// and Zones. Zone inlets come from the open row of the columnar
// telemetry frame — the same bytes batch-mode analysis reads, one
// memcpy, no re-aggregation; per-rack and per-zone power are the
// fleet's O(1) maintained sums. The power tree is evaluated once, into
// sc, and both the distribution view and PUE read that one evaluation.
func buildFacilitySnapshot(fs *FacilitySnapshot, src Source, sc *snapshotScratch) {
	dc := src.DC
	fleet := src.Fleet
	topo := dc.Topology()
	room := dc.Room()

	*fs = FacilitySnapshot{
		Racks:          resize(fs.Racks, len(topo.Racks)),
		Zones:          resize(fs.Zones, room.Zones()),
		FrameAtSeconds: -1,
	}
	for r := range topo.Racks {
		fs.Racks[r] = RackSnapshot{Rack: topo.Racks[r].Name(), PowerW: fleet.RackPowerW(r)}
	}
	var frameRow []float64
	if fw := dc.Frames(); fw != nil {
		sc.row = resize(sc.row, fw.Width())
		if at, ok := fw.LatestInto(sc.row); ok {
			frameRow = sc.row
			fs.FrameAtSeconds = at.Seconds()
		}
	}
	for z := 0; z < room.Zones(); z++ {
		inlet := room.ZoneInletC(z)
		if frameRow != nil {
			inlet = frameRow[dc.ZoneInletColumn(z)]
		}
		fs.Zones[z] = ZoneSnapshot{Zone: room.ZoneName(z), PowerW: fleet.ZonePowerW(z), InletC: inlet}
	}
	flow := topo.Feed.EvaluateInto(&sc.flow)
	fs.FeedInputW = flow.InW
	fs.DistLossW = flow.TotalLoss()
	if pue, _, err := dc.PUEOf(flow, outsideC, outsideRH); err == nil {
		fs.PUE = pue
	}
}
