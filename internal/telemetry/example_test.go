package telemetry_test

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Example shows the §5.3 pipeline: ingest 15-second samples, query the
// pyramid at a coarse resolution, and watch band retention discard stale
// raw points while aggregates survive.
func Example() {
	store, err := telemetry.NewStore(telemetry.Config{RawRetention: 30 * time.Minute})
	if err != nil {
		panic(err)
	}
	// A key sampled on its own is a one-column frame.
	cpu, err := store.Frames([]string{"srv1/cpu"})
	if err != nil {
		panic(err)
	}
	// Two hours of a counter that sits at 10 and doubles in hour two.
	for i := 0; i < 2*60*4; i++ {
		v := 10.0
		if i >= 60*4 {
			v = 20.0
		}
		if err := cpu.Append(time.Duration(i)*15*time.Second, []float64{v}); err != nil {
			panic(err)
		}
	}
	hours, err := store.Query("srv1/cpu", 0, 2*time.Hour, telemetry.ResHour)
	if err != nil {
		panic(err)
	}
	for _, b := range hours {
		fmt.Printf("hour starting %v: mean %.0f (%d samples)\n",
			b.Start, b.Mean(), b.Count)
	}
	st := store.Stats()
	fmt.Printf("raw retained: %d of %d appended\n", st.RawPoints, st.RawPoints+st.DroppedRaw)
	// Output:
	// hour starting 0s: mean 10 (240 samples)
	// hour starting 1h0m0s: mean 20 (240 samples)
	// raw retained: 121 of 480 appended
}

// ExampleFrameWriter shows the §5.3 collector shape: counters read in
// one sweep form one frame, each sweep appends one round, and a live
// exporter copies the latest round out without touching the pyramid.
func ExampleFrameWriter() {
	store, err := telemetry.NewStore(telemetry.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fw, err := store.Frames([]string{"srv1/power", "srv2/power", "srv3/power"})
	if err != nil {
		panic(err)
	}
	// Two minutes of 15-second sweeps.
	round := make([]float64, fw.Width())
	for i := 0; i < 8; i++ {
		for s := range round {
			round[s] = float64(100*(s+1) + i)
		}
		if err := fw.Append(time.Duration(i)*15*time.Second, round); err != nil {
			panic(err)
		}
	}
	latest := make([]float64, fw.Width())
	at, _ := fw.LatestInto(latest)
	fmt.Printf("latest sweep at %v: %v\n", at, latest)
	minutes, err := store.Query("srv2/power", 0, time.Hour, telemetry.ResMinute)
	if err != nil {
		panic(err)
	}
	for _, b := range minutes {
		fmt.Printf("srv2 minute %v: mean %.1f, max %.0f\n", b.Start, b.Mean(), b.Max)
	}
	// Output:
	// latest sweep at 1m45s: [107 207 307]
	// srv2 minute 0s: mean 201.5, max 203
	// srv2 minute 1m0s: mean 205.5, max 207
}
