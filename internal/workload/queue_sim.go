package workload

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// QueueSimResult summarizes an event-driven queue run.
type QueueSimResult struct {
	// Completed is the number of requests served.
	Completed int
	// MeanResponse and P95Response summarize sojourn times.
	MeanResponse, P95Response time.Duration
	// MeanUtilization is busy time over the horizon.
	MeanUtilization float64
}

// SimulateMM1On runs an event-driven M/M/1 (FIFO) queue: Poisson
// arrivals at rate lambda (1/s), exponential service at rate mu (1/s),
// for the given virtual horizon. It exists to validate the fluid
// QueueModel the closed-loop experiments use — the fluid R = S/(1−ρ) is
// exactly the M/M/1 mean sojourn time, and this simulator measures it
// from first principles.
//
// It runs on a caller-supplied engine (which must be fresh: virtual time
// zero and no pending events), so probes and invariant checkers attached
// to the engine observe the run. All randomness comes from rng; the
// engine's own random source is untouched.
func SimulateMM1On(e *sim.Engine, lambda, mu float64, horizon time.Duration, rng *sim.RNG) (QueueSimResult, error) {
	if lambda <= 0 || mu <= 0 {
		return QueueSimResult{}, fmt.Errorf("workload: rates must be positive, got lambda=%v mu=%v", lambda, mu)
	}
	if horizon <= 0 {
		return QueueSimResult{}, fmt.Errorf("workload: horizon %v must be positive", horizon)
	}

	var queue []time.Duration // arrival times of waiting requests
	busy := false
	var busySince time.Duration
	var busyTotal time.Duration
	var sojourns []time.Duration

	var startService func(eng *sim.Engine)
	startService = func(eng *sim.Engine) {
		if busy || len(queue) == 0 {
			return
		}
		busy = true
		busySince = eng.Now()
		arrival := queue[0]
		queue = queue[1:]
		service := time.Duration(rng.Exp(mu) * float64(time.Second))
		eng.ScheduleAfter(service, func(eng2 *sim.Engine) {
			sojourns = append(sojourns, eng2.Now()-arrival)
			busy = false
			busyTotal += eng2.Now() - busySince
			startService(eng2)
		})
	}

	var scheduleArrival func(eng *sim.Engine)
	scheduleArrival = func(eng *sim.Engine) {
		gap := time.Duration(rng.Exp(lambda) * float64(time.Second))
		eng.ScheduleAfter(gap, func(eng2 *sim.Engine) {
			queue = append(queue, eng2.Now())
			startService(eng2)
			scheduleArrival(eng2)
		})
	}
	scheduleArrival(e)
	if err := e.Run(horizon); err != nil {
		return QueueSimResult{}, err
	}
	if busy {
		busyTotal += horizon - busySince
	}
	if len(sojourns) == 0 {
		return QueueSimResult{}, fmt.Errorf("workload: no completions in %v", horizon)
	}
	res := QueueSimResult{
		Completed:       len(sojourns),
		MeanUtilization: busyTotal.Seconds() / horizon.Seconds(),
	}
	// Post-condition: busy time is a union of disjoint intervals inside
	// the horizon, so utilization must land in [0,1]; anything else is an
	// accounting bug, not noise.
	if res.MeanUtilization < 0 || res.MeanUtilization > 1 {
		return QueueSimResult{}, fmt.Errorf("workload: invariant mm1-utilization violated: %v out of [0,1]", res.MeanUtilization)
	}
	var sum time.Duration
	for _, s := range sojourns {
		sum += s
	}
	res.MeanResponse = sum / time.Duration(len(sojourns))
	sorted := append([]time.Duration(nil), sojourns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	res.P95Response = sorted[int(float64(len(sorted))*0.95)]
	return res, nil
}
