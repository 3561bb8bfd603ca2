package server

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestCrashFromActive(t *testing.T) {
	e := sim.NewEngine(1)
	s := MustNew(DefaultConfig())
	s.PowerOn(e)
	if err := e.Run(DefaultConfig().BootDelay + time.Minute); err != nil {
		t.Fatal(err)
	}
	s.SetUtilization(e.Now(), 0.7)
	if !s.Crash(e.Now()) {
		t.Fatal("active server must crash")
	}
	if s.State() != StateOff {
		t.Fatalf("state %v after crash, want Off", s.State())
	}
	if s.Utilization() != 0 {
		t.Fatalf("utilization %v after crash, want 0", s.Utilization())
	}
	if s.Crashes() != 1 {
		t.Fatalf("crashes %d, want 1", s.Crashes())
	}
	// Recovery is a normal boot.
	s.PowerOn(e)
	if s.State() != StateBooting {
		t.Fatalf("state %v after recovery PowerOn, want Booting", s.State())
	}
}

func TestCrashAbortsBoot(t *testing.T) {
	e := sim.NewEngine(1)
	s := MustNew(DefaultConfig())
	s.PowerOn(e)
	if err := e.Run(10 * time.Second); err != nil { // mid-boot
		t.Fatal(err)
	}
	if s.State() != StateBooting {
		t.Fatalf("state %v, want Booting", s.State())
	}
	if !s.Crash(e.Now()) {
		t.Fatal("booting server must crash")
	}
	if s.State() != StateOff {
		t.Fatalf("state %v after crash, want Off", s.State())
	}
	// The stale boot-completion event must not resurrect the machine.
	if err := e.Run(DefaultConfig().BootDelay + time.Minute); err != nil {
		t.Fatal(err)
	}
	if s.State() != StateOff {
		t.Fatalf("state %v after stale boot event, want Off", s.State())
	}
}

func TestCrashNoOpWhenOffOrShuttingDown(t *testing.T) {
	e := sim.NewEngine(1)
	s := MustNew(DefaultConfig())
	if s.Crash(e.Now()) {
		t.Fatal("off server must not crash")
	}
	s.PowerOn(e)
	if err := e.Run(DefaultConfig().BootDelay + time.Minute); err != nil {
		t.Fatal(err)
	}
	s.PowerOff(e)
	if s.State() != StateShuttingDown {
		t.Fatalf("state %v, want ShuttingDown", s.State())
	}
	if s.Crash(e.Now()) {
		t.Fatal("shutting-down server must not crash")
	}
	if s.Crashes() != 0 {
		t.Fatalf("crashes %d, want 0", s.Crashes())
	}
}

func TestCrashKeepsEnergyAccountingConsistent(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	s := MustNew(cfg)
	s.PowerOn(e)
	if err := e.Run(cfg.BootDelay + time.Hour); err != nil {
		t.Fatal(err)
	}
	s.SetUtilization(e.Now(), 0.5)
	crashAt := e.Now() + 30*time.Minute
	e.At(crashAt, func(eng *sim.Engine) { s.Crash(eng.Now()) })
	if err := e.Run(crashAt + time.Hour); err != nil {
		t.Fatal(err)
	}
	beforeJ := s.EnergyJ()
	s.Sync(e.Now())
	if s.EnergyJ() != beforeJ {
		t.Fatalf("an Off server must not accrue energy: %v -> %v", beforeJ, s.EnergyJ())
	}
	if s.LastSyncAt() != e.Now() {
		t.Fatalf("sync time %v, want %v", s.LastSyncAt(), e.Now())
	}
}
