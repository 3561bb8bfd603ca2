// Package metrics provides the SLA accounting used by the
// macro-resource manager: response-time observations against a target.
package metrics

import (
	"fmt"
	"time"
)

// SLAAccumulator tracks response-time observations against a target.
type SLAAccumulator struct {
	target     time.Duration
	total      int64
	violations int64
	worst      time.Duration
}

// NewSLAAccumulator builds an accumulator for the given target.
func NewSLAAccumulator(target time.Duration) (*SLAAccumulator, error) {
	if target <= 0 {
		return nil, fmt.Errorf("metrics: SLA target %v must be positive", target)
	}
	return &SLAAccumulator{target: target}, nil
}

// Observe folds one response-time measurement.
func (a *SLAAccumulator) Observe(response time.Duration) {
	a.total++
	if response > a.target {
		a.violations++
	}
	if response > a.worst {
		a.worst = response
	}
}

// Violations reports the count of observations above target.
func (a *SLAAccumulator) Violations() int64 { return a.violations }

// Total reports the number of observations.
func (a *SLAAccumulator) Total() int64 { return a.total }

// ViolationRate reports violations/total (0 when empty).
func (a *SLAAccumulator) ViolationRate() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.violations) / float64(a.total)
}

// Worst reports the worst observed response.
func (a *SLAAccumulator) Worst() time.Duration { return a.worst }
