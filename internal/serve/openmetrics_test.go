package serve

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

const validExposition = `# TYPE acme_temp_celsius gauge
# UNIT acme_temp_celsius celsius
# HELP acme_temp_celsius Temperature.
acme_temp_celsius{zone="a",rack="r 1"} 21.5
acme_temp_celsius{zone="b"} 22
# TYPE acme_requests counter
# HELP acme_requests Requests served.
acme_requests_total 1.5e+06
# EOF
`

func TestLintAcceptsValid(t *testing.T) {
	if err := Lint([]byte(validExposition)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
}

func TestLintRejections(t *testing.T) {
	cases := map[string]string{
		"missing EOF":              "# TYPE a gauge\n# HELP a x.\na 1\n",
		"content after EOF":        "# TYPE a gauge\n# HELP a x.\na 1\n# EOF\na 2\n",
		"counter without _total":   "# TYPE a counter\n# HELP a x.\na 1\n# EOF\n",
		"negative counter":         "# TYPE a counter\n# HELP a x.\na_total -1\n# EOF\n",
		"sample before TYPE":       "a 1\n# EOF\n",
		"reopened family":          "# TYPE a gauge\n# HELP a x.\na 1\n# TYPE b gauge\n# HELP b x.\nb 1\n# TYPE a gauge\n# EOF\n",
		"sample outside block":     "# TYPE a gauge\n# HELP a x.\n# TYPE b gauge\n# HELP b x.\na 1\nb 1\n# EOF\n",
		"duplicate series":         "# TYPE a gauge\n# HELP a x.\na{k=\"v\"} 1\na{k=\"v\"} 2\n# EOF\n",
		"unit not suffix":          "# TYPE a_seconds gauge\n# UNIT a_seconds watts\n# HELP a_seconds x.\na_seconds 1\n# EOF\n",
		"missing HELP":             "# TYPE a gauge\na 1\n# EOF\n",
		"metadata without samples": "# TYPE a gauge\n# HELP a x.\n# TYPE b gauge\n# HELP b x.\nb 1\n# EOF\n",
		"bad value":                "# TYPE a gauge\n# HELP a x.\na pony\n# EOF\n",
		"bad label name":           "# TYPE a gauge\n# HELP a x.\na{0k=\"v\"} 1\n# EOF\n",
		"unquoted label value":     "# TYPE a gauge\n# HELP a x.\na{k=v} 1\n# EOF\n",
		"unterminated labels":      "# TYPE a gauge\n# HELP a x.\na{k=\"v\" 1\n# EOF\n",
		"duplicate label":          "# TYPE a gauge\n# HELP a x.\na{k=\"v\",k=\"w\"} 1\n# EOF\n",
		"duplicate TYPE":           "# TYPE a gauge\n# TYPE a gauge\n# HELP a x.\na 1\n# EOF\n",
		"TYPE after samples":       "# TYPE a gauge\n# HELP a x.\na{k=\"v\"} 1\n# TYPE a gauge\n# EOF\n",
		"unknown type":             "# TYPE a pony\n# HELP a x.\na 1\n# EOF\n",
		"empty line":               "# TYPE a gauge\n# HELP a x.\n\na 1\n# EOF\n",
		"bad metric name":          "# TYPE a-b gauge\n# HELP a-b x.\na-b 1\n# EOF\n",
	}
	for name, text := range cases {
		if err := Lint([]byte(text)); err == nil {
			t.Errorf("%s: lint accepted\n%s", name, text)
		}
	}
}

// TestLintAcceptsEscapedLabels exercises quoting edge cases the splitter
// must survive: escaped quotes, commas and braces inside values.
func TestLintAcceptsEscapedLabels(t *testing.T) {
	text := "# TYPE a gauge\n# HELP a x.\n" +
		`a{k="va\"l,ue}"} 1` + "\n# EOF\n"
	if err := Lint([]byte(text)); err != nil {
		t.Fatalf("escaped labels rejected: %v", err)
	}
}

// TestWriterOutputLints feeds a fully-populated snapshot (facility
// section included) through the writer and the linter.
func TestWriterOutputLints(t *testing.T) {
	snap := Snapshot{
		SimTimeSeconds: 3600, Speedup: 60, EventsProcessed: 12345,
		Mode: "coordinated", PState: 1, Decisions: 60,
		SLAViolationRate: 0.01, WorstResponseSeconds: 0.2,
		FleetSize: 10, OnCount: 6, ActiveCount: 5,
		SwitchOns: 8, SwitchOffs: 3,
		PowerW: 1500, EnergyJoules: 5.4e6, Trips: 1,
		RebaseDriftW: 1e-12, RebaseDriftMaxW: 2e-12,
		Facility: &FacilitySnapshot{
			PUE: 1.4, FeedInputW: 2200, DistLossW: 120,
			Racks:          []RackSnapshot{{Rack: "rack0", PowerW: 800}, {Rack: "rack1", PowerW: 700}},
			Zones:          []ZoneSnapshot{{Zone: "z0", PowerW: 1500, InletC: 24.5}},
			FrameAtSeconds: 3585,
		},
		Carbon: CarbonSnapshot{IntensityGPerKWh: 475, RateGPerHour: 712.5, GramsTotal: 700},
	}
	var buf bytes.Buffer
	writeMetrics(&buf, snap, 7, 3)
	text := buf.String()
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatalf("writer output fails lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		`dcsim_rack_power_watts{rack="rack1"} 700`,
		"dcsim_scrapes_total 7\n",
		"dcsim_sim_sse_dropped_frames_total 3\n",
		"# UNIT dcsim_zone_inlet_celsius celsius\n",
		"# EOF\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestFormatValue pins the sample-value spelling: the shortest decimal
// that parses back to the same float, and NaN and the infinities spelled
// as OpenMetrics spells them, which Lint's ParseFloat also reads back.
func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    float64
		want string
	}{
		{"zero", 0, "0"},
		{"integer", 700, "700"},
		{"fraction", 21.5, "21.5"},
		{"negative", -3.25, "-3.25"},
		{"large", 1.5e6, "1.5e+06"},
		{"tiny", 1e-12, "1e-12"},
		{"NaN", math.NaN(), "NaN"},
		{"+Inf", math.Inf(1), "+Inf"},
		{"-Inf", math.Inf(-1), "-Inf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := formatValue(tc.v)
			if got != tc.want {
				t.Errorf("formatValue(%v) = %q, want %q", tc.v, got, tc.want)
			}
			back, err := strconv.ParseFloat(got, 64)
			same := math.Float64bits(back) == math.Float64bits(tc.v) || math.IsNaN(back) && math.IsNaN(tc.v)
			if err != nil || !same {
				t.Errorf("ParseFloat(%q) = %v, %v; want %v", got, back, err, tc.v)
			}
		})
	}
}

var escapeSink string

// TestEscapers pins the escaping rules and that a label value with
// nothing to escape is returned without allocating: the escapers run on
// every label value of every scrape.
func TestEscapers(t *testing.T) {
	raw := "a\\b\"c\nd"
	if got, want := escapeLabel(raw), `a\\b\"c\nd`; got != want {
		t.Errorf("escapeLabel(%q) = %q, want %q", raw, got, want)
	}
	if got, want := escapeHelp(raw), `a\\b"c\nd`; got != want {
		t.Errorf("escapeHelp(%q) = %q, want %q", raw, got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { escapeSink = escapeLabel("rack-07") }); allocs != 0 {
		t.Errorf("escapeLabel on a clean value allocates %v objects, want 0", allocs)
	}
}
