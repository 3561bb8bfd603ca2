package dvfs

import (
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

func TestThresholdPicksSlowestSufficientState(t *testing.T) {
	ladder := server.DefaultPStates() // freqs 1.0 … 0.6
	p, err := NewThreshold(ladder, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 1000.0
	tests := []struct {
		offered float64
		want    int
	}{
		{0, len(ladder) - 1},   // idle: slowest
		{100, len(ladder) - 1}, // light: slowest (0.6×0.8×1000=480 ≥ 100)
		{500, 3},               // 0.7×0.8×1000 = 560 ≥ 500; 0.6 state gives 480 < 500
		{700, 1},               // 0.9×0.8×1000 = 720 ≥ 700; 0.8 gives 640 < 700
		{790, 0},               // only nominal holds the target
		{2000, 0},              // overload: fastest
	}
	for _, tt := range tests {
		if got := p.Decide(tt.offered, cap); got != tt.want {
			t.Errorf("Decide(%v) = %d (freq %v), want %d",
				tt.offered, got, ladder[got].Freq, tt.want)
		}
	}
	// Degenerate inputs run fastest.
	if p.Decide(100, 0) != 0 {
		t.Error("zero capacity should run fastest")
	}
	if p.Decide(-1, cap) != 0 {
		t.Error("negative load should run fastest")
	}
}

func TestThresholdValidation(t *testing.T) {
	ladder := server.DefaultPStates()
	if _, err := NewThreshold(nil, 0.8); err == nil {
		t.Error("empty ladder should error")
	}
	if _, err := NewThreshold(ladder, 0); err == nil {
		t.Error("zero target should error")
	}
	if _, err := NewThreshold(ladder, 1.5); err == nil {
		t.Error("target > 1 should error")
	}
	unsorted := []server.PState{{Freq: 0.6, DynFactor: 0.2}, {Freq: 1, DynFactor: 1}}
	if _, err := NewThreshold(unsorted, 0.8); err == nil {
		t.Error("unsorted ladder should error")
	}
}

func TestResponseFeedbackHoldsSetpoint(t *testing.T) {
	// Closed loop with the fluid queue: the policy should settle at a
	// frequency where response sits near the setpoint, saving energy vs
	// always-fastest while meeting the SLA.
	ladder := server.DefaultPStates()
	q := workload.DefaultQueueModel()
	const sla = 100 * time.Millisecond
	p, err := NewResponseFeedback(ladder, sla, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	const offered = 400.0 // on a 1000-capacity server
	const capNominal = 1000.0
	idx := 0
	var measured time.Duration
	for i := 0; i < 400; i++ {
		freq := ladder[idx].Freq
		rho := offered / (capNominal * freq)
		measured = q.Response(rho)
		idx = p.Decide(measured, time.Second)
	}
	if measured > sla {
		t.Errorf("settled response %v exceeds SLA %v", measured, sla)
	}
	if idx == 0 {
		t.Errorf("policy settled at nominal frequency — no energy saving at 40%% load")
	}
	if got := p.Target(); got != sla {
		t.Errorf("Target = %v, want %v", got, sla)
	}
}

func TestResponseFeedbackRaisesFrequencyUnderLoad(t *testing.T) {
	ladder := server.DefaultPStates()
	p, err := NewResponseFeedback(ladder, 50*time.Millisecond, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Persistent SLA violation drives the output to the fastest state.
	idx := len(ladder) - 1
	for i := 0; i < 100; i++ {
		idx = p.Decide(500*time.Millisecond, time.Second)
	}
	if idx != 0 {
		t.Errorf("persistent violation settled at state %d, want 0 (fastest)", idx)
	}
}

func TestResponseFeedbackBatchSlack(t *testing.T) {
	ladder := server.DefaultPStates()
	p, err := NewResponseFeedback(ladder, 100*time.Millisecond, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Target() != 200*time.Millisecond {
		t.Errorf("batched target = %v, want 200ms", p.Target())
	}
	if _, err := NewResponseFeedback(ladder, 100*time.Millisecond, 0.5); err == nil {
		t.Error("batch slack < 1 should error")
	}
	if _, err := NewResponseFeedback(ladder, 0, 1); err == nil {
		t.Error("zero SLA should error")
	}
	if _, err := NewResponseFeedback(nil, time.Second, 1); err == nil {
		t.Error("empty ladder should error")
	}
}
