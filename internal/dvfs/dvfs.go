// Package dvfs implements the dynamic voltage and frequency scaling
// policies of §4.2: a utilization-threshold governor and a control-based
// response-time policy with request batching (after Elnozahy et al.
// [21]). Policies are pure deciders over a P-state ladder; actuation
// belongs to the server model and coordination to the macro layer.
package dvfs

import (
	"fmt"
	"time"

	"repro/internal/control"
	"repro/internal/server"
)

// validLadder checks a P-state ladder (fastest first, as in
// server.Config).
func validLadder(ladder []server.PState) error {
	if len(ladder) == 0 {
		return fmt.Errorf("dvfs: empty p-state ladder")
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].Freq >= ladder[i-1].Freq {
			return fmt.Errorf("dvfs: ladder not sorted fastest-first at %d", i)
		}
	}
	return nil
}

// Threshold is the classic ondemand-style governor: choose the slowest
// P-state that keeps delivered-capacity utilization at or below the
// target. It is deliberately oblivious to response time and to the on/off
// policy — exactly the composition hazard §5.1 describes.
type Threshold struct {
	ladder []server.PState
	target float64
}

// NewThreshold builds a governor with the given ladder (fastest first)
// and utilization target in (0,1].
func NewThreshold(ladder []server.PState, target float64) (*Threshold, error) {
	if err := validLadder(ladder); err != nil {
		return nil, err
	}
	if target <= 0 || target > 1 {
		return nil, fmt.Errorf("dvfs: target utilization %v out of (0,1]", target)
	}
	cp := make([]server.PState, len(ladder))
	copy(cp, ladder)
	return &Threshold{ladder: cp, target: target}, nil
}

// Decide returns the P-state index for an offered load (capacity units/s)
// on a server with the given nominal capacity: the slowest state whose
// delivered capacity keeps utilization ≤ target; the fastest state when
// nothing suffices.
func (t *Threshold) Decide(offered, nominalCapacity float64) int {
	if nominalCapacity <= 0 || offered < 0 {
		return 0
	}
	best := 0
	for i, ps := range t.ladder {
		if offered <= nominalCapacity*ps.Freq*t.target {
			best = i // ladder is fastest-first: later = slower = better
		}
	}
	// If even the fastest state cannot hold the target, run fastest.
	if offered > nominalCapacity*t.ladder[0].Freq*t.target {
		return 0
	}
	return best
}

// ResponseFeedback is the control-based DVFS policy of [21]: a PI
// controller holds measured response time at a setpoint by moving a
// continuous frequency, which snaps to the nearest P-state. Request
// batching is modelled as tolerated slack: the setpoint is the SLA target
// scaled by BatchSlack (batching trades response margin for power).
type ResponseFeedback struct {
	ladder []server.PState
	pid    *control.PID
	target time.Duration
	freq   float64
}

// NewResponseFeedback builds the policy. batchSlack ≥ 1 inflates the
// response setpoint (1 = none).
func NewResponseFeedback(ladder []server.PState, slaTarget time.Duration, batchSlack float64) (*ResponseFeedback, error) {
	if err := validLadder(ladder); err != nil {
		return nil, err
	}
	if slaTarget <= 0 {
		return nil, fmt.Errorf("dvfs: SLA target %v must be positive", slaTarget)
	}
	if batchSlack < 1 {
		return nil, fmt.Errorf("dvfs: batch slack %v must be >= 1", batchSlack)
	}
	minFreq := ladder[len(ladder)-1].Freq
	// Output is the frequency in [minFreq, 1]. Gains are scaled to the
	// setpoint so the controller works across SLA magnitudes.
	pid, err := control.NewPID(0.5, 0.2, 0, minFreq, 1)
	if err != nil {
		return nil, err
	}
	return &ResponseFeedback{
		ladder: append([]server.PState(nil), ladder...),
		pid:    pid,
		target: time.Duration(float64(slaTarget) * batchSlack),
		freq:   1,
	}, nil
}

// Target reports the effective response-time setpoint.
func (r *ResponseFeedback) Target() time.Duration { return r.target }

// Decide folds in a response-time measurement and returns the P-state
// index. Error is normalized (measured/target − 1) so a response at twice
// the setpoint produces error −1 (need more speed).
func (r *ResponseFeedback) Decide(measured time.Duration, dt time.Duration) int {
	errNorm := float64(r.target-measured) / float64(r.target)
	// Positive error (fast responses) lowers frequency; negative raises.
	r.freq = r.pid.Update(-errNorm, dt)
	return nearest(r.ladder, r.freq)
}

// nearest maps a continuous frequency onto the closest ladder index.
func nearest(ladder []server.PState, f float64) int {
	best := 0
	bestDiff := absF(ladder[0].Freq - f)
	for i, ps := range ladder[1:] {
		if d := absF(ps.Freq - f); d < bestDiff {
			best, bestDiff = i+1, d
		}
	}
	return best
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
