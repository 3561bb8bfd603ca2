// Package workload models the request-level demand placed on servers: a
// fluid queueing abstraction per server (utilization → response time), and
// the connection-intensive service model of Chen et al. [18] that the
// paper builds on — services like Messenger where the expensive operation
// is accepting a login while maintaining a connection is cheap, so
// provisioning must respect both a connection-capacity and a
// login-rate-capacity constraint.
package workload

import (
	"fmt"
	"math"
	"time"
)

// QueueModel converts server utilization into mean response time using an
// M/M/1-processor-sharing fluid approximation: R = S / (1 − ρ), clamped
// at a maximum that represents client timeouts. It is deliberately simple —
// the coordination experiments need the *shape* (delay blows up as ρ→1),
// not queueing-theoretic precision.
type QueueModel struct {
	// ServiceTime is the no-contention response time S.
	ServiceTime time.Duration
	// MaxResponse caps the modelled response (clients time out).
	MaxResponse time.Duration
}

// DefaultQueueModel is a typical interactive web service: 20 ms of work,
// 8 s client timeout.
func DefaultQueueModel() QueueModel {
	return QueueModel{ServiceTime: 20 * time.Millisecond, MaxResponse: 8 * time.Second}
}

// Validate checks the model.
func (q QueueModel) Validate() error {
	if q.ServiceTime <= 0 {
		return fmt.Errorf("workload: service time %v must be positive", q.ServiceTime)
	}
	if q.MaxResponse < q.ServiceTime {
		return fmt.Errorf("workload: max response %v below service time %v", q.MaxResponse, q.ServiceTime)
	}
	return nil
}

// Response returns the mean response time at utilization rho in [0,1].
func (q QueueModel) Response(rho float64) time.Duration {
	if rho < 0 {
		rho = 0
	}
	if rho >= 1 {
		return q.MaxResponse
	}
	r := time.Duration(float64(q.ServiceTime) / (1 - rho))
	if r > q.MaxResponse {
		return q.MaxResponse
	}
	return r
}

// UtilizationFor inverts Response: the utilization at which the model
// produces the target mean response time. Targets at or below the service
// time return 0; targets at or above MaxResponse return 1.
func (q QueueModel) UtilizationFor(target time.Duration) float64 {
	if target <= q.ServiceTime {
		return 0
	}
	if target >= q.MaxResponse {
		return 1
	}
	return 1 - float64(q.ServiceTime)/float64(target)
}

// ConnectionServiceConfig describes a connection-intensive Internet
// service (after [18]): logins are CPU-expensive, maintained connections
// are memory-bound.
type ConnectionServiceConfig struct {
	// ConnsPerServer is how many live connections one server sustains.
	ConnsPerServer float64
	// LoginsPerServerSec is how many new logins per second one server
	// absorbs (the binding constraint during flash crowds).
	LoginsPerServerSec float64
	// LoginCPUCost is the utilization contributed by one login/s.
	LoginCPUCost float64
	// ConnCPUCost is the utilization contributed by one held connection.
	ConnCPUCost float64
}

// DefaultConnectionService matches the scale of the paper's Figure 3:
// tens of servers per million connections with login spikes to 1400/s.
func DefaultConnectionService() ConnectionServiceConfig {
	return ConnectionServiceConfig{
		ConnsPerServer:     80_000,
		LoginsPerServerSec: 60,
		LoginCPUCost:       1.0 / 80, // logins saturate CPU before their rated 60/s only in bursts
		ConnCPUCost:        1.0 / 120_000,
	}
}

// Validate checks the configuration.
func (c ConnectionServiceConfig) Validate() error {
	if c.ConnsPerServer <= 0 || c.LoginsPerServerSec <= 0 {
		return fmt.Errorf("workload: connection service capacities must be positive")
	}
	if c.LoginCPUCost < 0 || c.ConnCPUCost < 0 {
		return fmt.Errorf("workload: connection service costs must be non-negative")
	}
	return nil
}

// ServersNeeded returns the minimum number of servers that can carry the
// given connection count and login rate — the max of the two constraints
// (plus any headroom the provisioning policy adds on top).
func (c ConnectionServiceConfig) ServersNeeded(connections, loginRate float64) int {
	if connections < 0 {
		connections = 0
	}
	if loginRate < 0 {
		loginRate = 0
	}
	byConns := math.Ceil(connections / c.ConnsPerServer)
	byLogins := math.Ceil(loginRate / c.LoginsPerServerSec)
	n := int(math.Max(byConns, byLogins))
	if n < 1 {
		n = 1
	}
	return n
}

// Utilization returns the per-server CPU utilization when the given load
// is spread evenly over n servers, clamped to [0,1].
func (c ConnectionServiceConfig) Utilization(connections, loginRate float64, n int) float64 {
	if n <= 0 {
		return 1
	}
	u := (connections*c.ConnCPUCost + loginRate*c.LoginCPUCost) / float64(n)
	return math.Max(0, math.Min(1, u))
}

// Dispatch splits an offered load (in capacity units/second) over servers
// proportionally to their available capacities, returning the utilization
// assigned to each and the load that could not be placed.
type Dispatch struct {
	// Utilizations[i] is the assigned utilization of server i.
	Utilizations []float64
	// Dropped is offered load that exceeded total capacity.
	Dropped float64
}

// SpreadPlan is the scalar outcome of a proportional-spread decision:
// the per-server fill fraction (applied to every server with positive
// capacity) and the load that could not be placed. Computing the plan is
// separated from applying it so a sharded dispatcher can take the same
// decision once, centrally, and apply the identical fill to each shard —
// bit-for-bit the arithmetic SpreadLoad performs serially.
type SpreadPlan struct {
	// Fill is the utilization assigned to every server whose capacity is
	// positive (zero-capacity servers always get 0).
	Fill float64
	// Dropped is offered load that exceeded total capacity.
	Dropped float64
}

// PlanSpread computes the proportional-spread decision for an offered
// load against the summed positive capacity.
func PlanSpread(offered, totalCapacity float64) SpreadPlan {
	if offered <= 0 {
		return SpreadPlan{}
	}
	if totalCapacity == 0 {
		return SpreadPlan{Dropped: offered}
	}
	if offered >= totalCapacity {
		return SpreadPlan{Fill: 1, Dropped: offered - totalCapacity}
	}
	return SpreadPlan{Fill: offered / totalCapacity}
}

// SpreadLoad distributes `offered` load over servers with the given
// available capacities (units/second), filling proportionally — the
// water-filling behaviour of a least-loaded balancer in steady state.
func SpreadLoad(offered float64, capacities []float64) Dispatch {
	d := Dispatch{Utilizations: make([]float64, len(capacities))}
	if offered <= 0 {
		return d
	}
	var total float64
	for _, c := range capacities {
		if c > 0 {
			total += c
		}
	}
	plan := PlanSpread(offered, total)
	d.Dropped = plan.Dropped
	if plan.Fill != 0 {
		for i, c := range capacities {
			if c > 0 {
				d.Utilizations[i] = plan.Fill
			}
		}
	}
	return d
}

// PackLoad fills servers one at a time to the target utilization before
// opening the next — the consolidating dispatch used with on/off policies
// (load "needs to be routed properly to remaining active systems", §4.3).
// Returns per-server utilizations and unplaced load.
func PackLoad(offered float64, capacities []float64, target float64) (Dispatch, error) {
	if target <= 0 || target > 1 {
		return Dispatch{}, fmt.Errorf("workload: pack target %v out of (0,1]", target)
	}
	d := Dispatch{Utilizations: make([]float64, len(capacities))}
	remaining := offered
	for i, c := range capacities {
		if remaining <= 0 || c <= 0 {
			continue
		}
		take := math.Min(remaining, c*target)
		d.Utilizations[i] = take / c
		remaining -= take
	}
	// Second pass: if target filling couldn't place everything, top up
	// to 100 %. The divide-back (c·headroom)/c can land an ulp above 1,
	// so clamp — a dispatcher must never assign more than a server's
	// whole capacity.
	if remaining > 0 {
		for i, c := range capacities {
			if remaining <= 0 || c <= 0 {
				continue
			}
			headroom := c * (1 - d.Utilizations[i])
			take := math.Min(remaining, headroom)
			d.Utilizations[i] = math.Min(1, d.Utilizations[i]+take/c)
			remaining -= take
		}
	}
	if remaining > 0 {
		d.Dropped = remaining
	}
	return d, nil
}
