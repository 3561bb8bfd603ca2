package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The hand-written snapshot encoder against its oracle, encoding/json:
// every byte must match json.Marshal, and a NaN or Inf must fail
// exactly when json.Marshal fails.

// jsonFloat draws from the float classes the encoder formats
// differently: zeros, subnormals, both sides of the 1e-6 and 1e21
// format cutoffs, large integers, extremes, and ordinary values.
func jsonFloat(rng *rand.Rand) float64 {
	var v float64
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		v = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20)) // subnormal
	case 3:
		v = []float64{1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 9.5e-7}[rng.Intn(5)]
	case 4:
		v = []float64{1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 1.5e21}[rng.Intn(5)]
	case 5:
		v = float64(rng.Int63() >> uint(rng.Intn(63))) // large integers
	case 6:
		v = []float64{math.MaxFloat64, math.SmallestNonzeroFloat64, 1 << 53, 1<<53 + 2, 0.1, 1.0 / 3}[rng.Intn(6)]
	case 7:
		v = float64(rng.Intn(2000))
	case 8:
		v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(80)-40))
	default:
		v = rng.Float64() * 1000
	}
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// jsonStringPieces are the fragments jsonString concatenates: HTML
// characters, quotes and backslashes, every class of control byte,
// invalid and truncated UTF-8, the JavaScript line separators, and
// multi-byte runes.
var jsonStringPieces = []string{
	"", "a", "rack-07", "zone 3", "<", ">", "&", `"`, `\`, "/",
	"\x00", "\x01", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
	"\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80",
	"\u2028", "\u2029", "\u2027", "\u202a", "é", "日本", "😀", "\ufffd",
}

func jsonString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(jsonStringPieces[rng.Intn(len(jsonStringPieces))])
	}
	return b.String()
}

// randSnapshot fills every field of a snapshot, with each optional
// section absent or present and each slice nil, empty or populated.
func randSnapshot(rng *rand.Rand) Snapshot {
	f := func() float64 { return jsonFloat(rng) }
	n := func() int { return rng.Intn(2001) - 1000 }
	s := Snapshot{
		Seq: rng.Uint64(), SimTimeSeconds: f(), Speedup: f(), EventsProcessed: rng.Uint64(),
		PState: n(), Decisions: rng.Int63() - rng.Int63(), SLAViolationRate: f(), WorstResponseSeconds: f(),
		FleetSize: n(), OnCount: n(), ActiveCount: n(), SwitchOns: n(), SwitchOffs: n(),
		PowerW: f(), EnergyJoules: f(), Trips: n(), RebaseDriftW: f(), RebaseDriftMaxW: f(),
		Carbon: CarbonSnapshot{IntensityGPerKWh: f(), RateGPerHour: f(), GramsTotal: f()},
	}
	if rng.Intn(2) == 0 {
		s.Mode = jsonString(rng)
	}
	// sliceLen is -1 for a nil slice.
	sliceLen := func() int { return rng.Intn(5) - 1 }
	if rng.Intn(3) > 0 {
		fs := &FacilitySnapshot{PUE: f(), FeedInputW: f(), DistLossW: f(), FrameAtSeconds: f()}
		if k := sliceLen(); k >= 0 {
			fs.Racks = make([]RackSnapshot, k)
			for i := range fs.Racks {
				fs.Racks[i] = RackSnapshot{Rack: jsonString(rng), PowerW: f()}
			}
		}
		if k := sliceLen(); k >= 0 {
			fs.Zones = make([]ZoneSnapshot, k)
			for i := range fs.Zones {
				fs.Zones[i] = ZoneSnapshot{Zone: jsonString(rng), PowerW: f(), InletC: f()}
			}
		}
		s.Facility = fs
	}
	if rng.Intn(2) == 0 {
		s.Degrader = &DegraderSnapshot{LadderStage: n(), CapEvents: n(), SurvivalSheds: n(), ShedServers: n(), Fallbacks: n(), DarkRounds: n()}
	}
	if rng.Intn(3) > 0 {
		u := &UsersSnapshot{
			OfferedTotal: f(), AdmittedTotal: f(), RejectedTotal: f(), DegradedTotal: f(),
			DeferredBacklog: f(), FairShareQ: f(), ShedLevel: n(),
		}
		if rng.Intn(2) == 0 {
			u.Retry = &RetrySnapshot{
				FreshTotal: f(), RetriedTotal: f(), AbandonedTotal: f(), GoodputTotal: f(),
				InRetry: f(), Amplification: f(), BreakerState: jsonString(rng), BreakerTrips: rng.Int63() - rng.Int63(),
			}
		}
		if k := sliceLen(); k >= 0 {
			u.Classes = make([]UserClassSnapshot, k)
			for i := range u.Classes {
				u.Classes[i] = UserClassSnapshot{Class: jsonString(rng), AdmittedTotal: f(), RejectedTotal: f(), DegradedTotal: f(), SLOMissRate: f()}
			}
		}
		s.Users = u
	}
	return s
}

func randGeoSnapshot(rng *rand.Rand) GeoSnapshot {
	g := GeoSnapshot{
		Seq: rng.Uint64(), SimTimeSeconds: jsonFloat(rng), Speedup: jsonFloat(rng), Mode: jsonString(rng),
		Epochs: rng.Int63() - rng.Int63(), PowerW: jsonFloat(rng), EnergyJoules: jsonFloat(rng), GramsCO2e: jsonFloat(rng),
	}
	if k := rng.Intn(5) - 1; k >= 0 {
		g.Sites = make([]GeoSiteSnapshot, k)
		for i := range g.Sites {
			g.Sites[i] = GeoSiteSnapshot{Site: jsonString(rng), TZOffsetSeconds: jsonFloat(rng), RouteWeight: jsonFloat(rng), Snapshot: randSnapshot(rng)}
		}
	}
	return g
}

// floatFields returns a pointer to every float64 reachable from v (a
// pointer to a snapshot) through struct fields, pointers and slices.
func floatFields(v reflect.Value) []*float64 {
	var out []*float64
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			out = append(out, v.Addr().Interface().(*float64))
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(v.Elem())
	return out
}

// checkJSON compares the encoder's output for v (a *Snapshot or
// *GeoSnapshot) with json.Marshal's, appending to a non-empty prefix
// to check the encoder keeps what dst already holds.
func checkJSON(t *testing.T, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	prefix := []byte("prefix:")
	var got []byte
	var gotErr error
	switch v := v.(type) {
	case *Snapshot:
		got, gotErr = appendSnapshotJSON(append([]byte(nil), prefix...), v)
	case *GeoSnapshot:
		got, gotErr = appendGeoSnapshotJSON(append([]byte(nil), prefix...), v)
	default:
		t.Fatalf("checkJSON: unsupported %T", v)
	}
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("encoder error %v, json.Marshal error %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("encoder overwrote dst: %q", got[:min(len(got), len(prefix))])
	}
	got = got[len(prefix):]
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-40)
		t.Fatalf("encoder diverges from json.Marshal at byte %d:\n got …%s\nwant …%s",
			i, got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
	}
}

// checkNonFinite sets each float field of v in turn to NaN, +Inf and
// -Inf and checks both encoders fail, then restores it.
func checkNonFinite(t *testing.T, v any) {
	t.Helper()
	for _, p := range floatFields(reflect.ValueOf(v)) {
		old := *p
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			*p = bad
			checkJSON(t, v)
		}
		*p = old
	}
}

func TestSnapshotJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		snap := randSnapshot(rng)
		checkJSON(t, &snap)
		if i%50 == 0 {
			checkNonFinite(t, &snap)
		}
	}
	for i := 0; i < 500; i++ {
		geo := randGeoSnapshot(rng)
		checkJSON(t, &geo)
		if i%50 == 0 {
			checkNonFinite(t, &geo)
		}
	}
	// Every string piece on its own and every single byte, as a rack
	// name and as a site name.
	var one []string
	one = append(one, jsonStringPieces...)
	for b := 0; b < 256; b++ {
		one = append(one, string([]byte{byte(b)}))
	}
	for _, s := range one {
		snap := Snapshot{Mode: s, Facility: &FacilitySnapshot{Racks: []RackSnapshot{{Rack: s}}}}
		checkJSON(t, &snap)
		geo := GeoSnapshot{Mode: s, Sites: []GeoSiteSnapshot{{Site: s, Snapshot: snap}}}
		checkJSON(t, &geo)
	}
	// The zero values: every optional section absent, every slice nil.
	checkJSON(t, &Snapshot{})
	checkJSON(t, &GeoSnapshot{})
}

// FuzzSnapshotJSON puts fuzzed strings and floats into the rack, zone,
// class and site names and values, against the same oracle.
func FuzzSnapshotJSON(f *testing.F) {
	f.Add("rack<0>", "zone&1", "interactive", "us-east", 1e-7, 1e21, -0.0)
	f.Add("\xff\u2028", "\x00\t\"\\", "日本", "", 5e-324, 1e-6, 123456789012345678.0)
	f.Add("", "", "", "\u2029", math.Inf(1), math.NaN(), 0.5)
	f.Fuzz(func(t *testing.T, rack, zone, class, site string, a, b, c float64) {
		snap := Snapshot{
			Mode: site, SimTimeSeconds: a, PowerW: b,
			Facility: &FacilitySnapshot{
				PUE: c, FrameAtSeconds: a,
				Racks: []RackSnapshot{{Rack: rack, PowerW: a}, {Rack: zone, PowerW: c}},
				Zones: []ZoneSnapshot{{Zone: zone, PowerW: b, InletC: c}},
			},
			Carbon: CarbonSnapshot{IntensityGPerKWh: c},
			Users: &UsersSnapshot{
				FairShareQ: b,
				Retry:      &RetrySnapshot{BreakerState: class, Amplification: a},
				Classes:    []UserClassSnapshot{{Class: class, SLOMissRate: b}},
			},
		}
		checkJSON(t, &snap)
		geo := GeoSnapshot{
			Mode: class, PowerW: c,
			Sites: []GeoSiteSnapshot{{Site: site, RouteWeight: a, TZOffsetSeconds: b, Snapshot: snap}},
		}
		checkJSON(t, &geo)
	})
}
