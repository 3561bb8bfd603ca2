package exp

import (
	"fmt"
	"math"
	"strings"
	stdtime "time"

	"repro/internal/sensornet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ---------------------------------------------------------------------------
// telemetry — data management at fleet scale (§5.3)
// ---------------------------------------------------------------------------

// TelemetryResult measures the §5.3 scenario: ingestion rate at paper
// scale, the multi-scale query speedup, and band-retention storage
// reduction.
type TelemetryResult struct {
	// PointsPerMinute is the measured sustained ingest rate.
	PointsPerMinute float64
	// PaperPointsPerMinute is the 2.4 M/min requirement.
	PaperPointsPerMinute float64
	// QuerySpeedup is raw-scan time over pyramid-query time for the
	// daily-trend query.
	QuerySpeedup float64
	// StorageReduction is raw points appended over (retained raw +
	// aggregate buckets).
	StorageReduction float64
	// TrendLen is the number of daily averages produced (sanity).
	TrendLen int
}

// ID implements Result.
func (TelemetryResult) ID() string { return "telemetry" }

// Report implements Result.
func (r TelemetryResult) Report() string {
	var b strings.Builder
	b.WriteString(header("telemetry", "multi-scale telemetry at fleet scale (§5.3)"))
	fmt.Fprintf(&b, "sustained ingest: %.2g points/min (paper scenario needs %.2g points/min)\n",
		r.PointsPerMinute, r.PaperPointsPerMinute)
	fmt.Fprintf(&b, "daily-trend query speedup from the pyramid: %.0fx vs raw scan\n", r.QuerySpeedup)
	fmt.Fprintf(&b, "storage reduction from band retention + aggregation: %.0fx\n", r.StorageReduction)
	return b.String()
}

// RunTelemetry ingests a scaled copy of the paper's 10,000-server ×
// 100-counter × 15-second scenario and measures rates with the wall
// clock (the only experiment where wall time, not virtual time, is the
// metric). Its synthetic values are deterministic, so it reads nothing
// from env.
func RunTelemetry(env *Env) (Result, error) {
	store, err := telemetry.NewStore(telemetry.Config{RawRetention: stdtime.Hour})
	if err != nil {
		return nil, err
	}
	// Scaled scenario: 200 servers × 20 counters × 2 simulated days of
	// 15 s samples = 46.08 M points is too slow for a default run; use
	// 200 servers × 10 counters × 5,760 samples (one day) = 11.52 M
	// points and measure the rate.
	const (
		servers  = 200
		counters = 10
		day      = 24 * 60 * 4 // 15s samples per day
	)
	// The collector reads every counter in one sweep per 15 s, so the
	// keys form one frame and each sweep is one round.
	keys := make([]string, 0, servers*counters)
	for s := 0; s < servers; s++ {
		for c := 0; c < counters; c++ {
			keys = append(keys, fmt.Sprintf("srv%04d/c%02d", s, c))
		}
	}
	fw, err := store.Frames(keys)
	if err != nil {
		return nil, err
	}
	row := make([]float64, len(keys))
	start := stdtime.Now()
	for i := 0; i < day; i++ {
		v := float64(i % 960)
		for k := range row {
			row[k] = v
		}
		if err := fw.Append(stdtime.Duration(i)*15*stdtime.Second, row); err != nil {
			return nil, err
		}
	}
	// Stats folds the rounds still pending, so the timed ingest covers
	// every fold and the queries below fold nothing.
	st := store.Stats()
	elapsed := stdtime.Since(start)
	total := day * len(keys)
	perMin := float64(total) / elapsed.Minutes()

	// Query speedup: daily trend via the pyramid vs scanning raw-rate
	// data reconstructed from minute buckets (raw band was dropped —
	// that IS the design; compare against an un-aggregated store).
	flat, err := telemetry.NewStore(telemetry.Config{RawRetention: 0})
	if err != nil {
		return nil, err
	}
	one, err := flat.Frames([]string{"one"})
	if err != nil {
		return nil, err
	}
	for i := 0; i < day; i++ {
		ts := stdtime.Duration(i) * 15 * stdtime.Second
		if err := one.Append(ts, []float64{float64(i % 960)}); err != nil {
			return nil, err
		}
	}
	const reps = 200
	key := keys[0]
	qStart := stdtime.Now()
	var trend []float64
	for r := 0; r < reps; r++ {
		trend, err = store.DailyAverages(key)
		if err != nil {
			return nil, err
		}
	}
	pyramidTime := stdtime.Since(qStart)

	qStart = stdtime.Now()
	for r := 0; r < reps; r++ {
		bs, err := flat.Query("one", 0, 1<<62, telemetry.ResRaw)
		if err != nil {
			return nil, err
		}
		var sum float64
		var n int
		for _, bkt := range bs {
			sum += bkt.Sum
			n += int(bkt.Count)
		}
		if n == 0 {
			return nil, fmt.Errorf("exp: raw scan found nothing")
		}
	}
	rawTime := stdtime.Since(qStart)

	appended := float64(total)
	kept := float64(st.RawPoints + st.AggBuckets)
	res := TelemetryResult{
		PointsPerMinute:      perMin,
		PaperPointsPerMinute: 2.4e6,
		TrendLen:             len(trend),
	}
	if pyramidTime > 0 {
		res.QuerySpeedup = float64(rawTime) / float64(pyramidTime)
	}
	if kept > 0 {
		res.StorageReduction = appended / kept
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// sensornet — fine-grained sensing beats coarse estimation (§4.5)
// ---------------------------------------------------------------------------

// SensorNetResult compares dense WSN reconstruction with sparse
// interpolation against a known thermal field, and reports network
// health.
type SensorNetResult struct {
	DenseRMSE    float64
	SparseRMSE   float64
	Improvement  float64
	DeliveryRate float64
	LifetimeRnds int
}

// ID implements Result.
func (SensorNetResult) ID() string { return "sensornet" }

// Report implements Result.
func (r SensorNetResult) Report() string {
	var b strings.Builder
	b.WriteString(header("sensornet", "wireless sensing of the thermal map (§4.5, after [30])"))
	fmt.Fprintf(&b, "thermal-map RMSE: dense WSN %.2f degC vs sparse interpolation %.2f degC (%.0fx better)\n",
		r.DenseRMSE, r.SparseRMSE, r.Improvement)
	fmt.Fprintf(&b, "collection-tree delivery rate: %.0f%%; battery lifetime: %d rounds\n",
		r.DeliveryRate*100, r.LifetimeRnds)
	return b.String()
}

// RunSensorNet senses a synthetic hot-spot field.
func RunSensorNet(env *Env) (Result, error) {
	seed := env.Seed
	const zones = 24
	truth := func(z int) float64 {
		// Two hot spots over a 21 °C floor.
		d1 := float64(z - 6)
		d2 := float64(z - 17)
		return 21 + 7*math.Exp(-d1*d1/3) + 5*math.Exp(-d2*d2/5)
	}
	truthMap := make([]float64, zones)
	for z := range truthMap {
		truthMap[z] = truth(z)
	}

	cfg := sensornet.DefaultNetworkConfig(zones)
	net, err := sensornet.NewNetwork(cfg, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	var all []sensornet.Reading
	for r := 0; r < 20; r++ {
		all = append(all, net.Collect(truth)...)
	}
	dense, err := sensornet.ReconstructMap(all, zones)
	if err != nil {
		return nil, err
	}
	denseRMSE, err := sensornet.RMSE(dense, truthMap)
	if err != nil {
		return nil, err
	}
	// Sparse baseline: CRAC return sensors only (ends + middle).
	sparse, err := sensornet.InterpolateSparse(map[int]float64{
		0: truth(0), zones / 2: truth(zones / 2), zones - 1: truth(zones - 1),
	}, zones)
	if err != nil {
		return nil, err
	}
	sparseRMSE, err := sensornet.RMSE(sparse, truthMap)
	if err != nil {
		return nil, err
	}
	delivered, lost := net.DeliveryStats()
	rate := float64(delivered) / float64(delivered+lost)

	// Lifetime: rounds until half the nodes are dead, on a fresh network
	// with small batteries.
	lifeCfg := sensornet.DefaultNetworkConfig(zones)
	for i := range lifeCfg.Nodes {
		lifeCfg.Nodes[i].BatteryJ = 2.0
	}
	lifeNet, err := sensornet.NewNetwork(lifeCfg, sim.NewRNG(seed+1))
	if err != nil {
		return nil, err
	}
	rounds := 0
	for lifeNet.AliveCount() > zones/2 && rounds < 1_000_000 {
		lifeNet.Collect(truth)
		rounds++
	}

	res := SensorNetResult{
		DenseRMSE:    denseRMSE,
		SparseRMSE:   sparseRMSE,
		DeliveryRate: rate,
		LifetimeRnds: rounds,
	}
	if denseRMSE > 0 {
		res.Improvement = sparseRMSE / denseRMSE
	}
	return res, nil
}
