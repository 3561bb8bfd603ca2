package serve

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// OpenMetrics exposition, written by hand: the repo is stdlib-only, so
// there is no client_golang to lean on. The subset implemented here is
// the text format v1.0.0 that scrapers actually require — HELP/TYPE
// (and UNIT where the name carries one) metadata, gauge and counter
// families, escaped label values, and the mandatory "# EOF" terminator.
// Lint below is the matching validator; CI pipes a live scrape through
// it so a regression in the writer fails the build, not the deploy.

// ContentType is the exposition content type for /metrics responses.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// omWriter accumulates one exposition. Families must be written as
// contiguous blocks (metadata then samples), which matches how
// writeMetrics drives it.
type omWriter struct {
	buf *bytes.Buffer
}

// family emits the metadata block. typ is "gauge" or "counter"; unit is
// optional and, per the spec, must be a suffix of the family name.
func (w *omWriter) family(name, typ, unit, help string) {
	fmt.Fprintf(w.buf, "# TYPE %s %s\n", name, typ)
	if unit != "" {
		fmt.Fprintf(w.buf, "# UNIT %s %s\n", name, unit)
	}
	fmt.Fprintf(w.buf, "# HELP %s %s\n", name, escapeHelp(help))
}

// sample emits one sample line. labels come as k, v pairs; for counter
// families the caller passes the full sample name (family + "_total").
func (w *omWriter) sample(name string, value float64, labels ...string) {
	w.buf.WriteString(name)
	if len(labels) > 0 {
		w.buf.WriteByte('{')
		for i := 0; i < len(labels); i += 2 {
			if i > 0 {
				w.buf.WriteByte(',')
			}
			w.buf.WriteString(labels[i])
			w.buf.WriteString(`="`)
			w.buf.WriteString(escapeLabel(labels[i+1]))
			w.buf.WriteByte('"')
		}
		w.buf.WriteByte('}')
	}
	w.buf.WriteByte(' ')
	w.buf.WriteString(formatValue(value))
	w.buf.WriteByte('\n')
}

func (w *omWriter) eof() { w.buf.WriteString("# EOF\n") }

func formatValue(v float64) string {
	// The spec forbids rendering NaN/Inf by accident; surface them
	// explicitly (scrapers treat NaN as a staleness marker).
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// The escapers are built once: a Replacer builds its lookup table on
// first use and is safe for concurrent use, and a value with nothing to
// escape comes back without an allocation.
var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// labeledSnapshot pairs one snapshot with the label set its samples
// carry: nil for the single-facility exposition, {"site", name} for each
// section of the geo federation's merged exposition.
type labeledSnapshot struct {
	labels []string
	snap   *Snapshot
}

// lbl combines a snapshot's base labels with sample-specific ones into a
// fresh slice (the base may be shared across samples).
func lbl(base []string, extra ...string) []string {
	if len(base) == 0 {
		return extra
	}
	out := make([]string, 0, len(base)+len(extra))
	out = append(out, base...)
	return append(out, extra...)
}

// writeMetrics renders a snapshot as one OpenMetrics exposition.
// scrapes and sseDropped are the server's own counters, which live
// outside the snapshot.
func writeMetrics(buf *bytes.Buffer, snap Snapshot, scrapes, sseDropped uint64) {
	writeLabeledMetrics(buf, []labeledSnapshot{{snap: &snap}}, scrapes, sseDropped, nil)
}

// writeLabeledMetrics renders one exposition covering every snapshot,
// each under its own label set. Families are emitted once as contiguous
// blocks (an OpenMetrics requirement) with the per-snapshot samples
// looped inside; a family whose slice is absent from every snapshot is
// omitted entirely. prelude, when set, writes caller-specific families
// (the geo federation's global roll-ups) before the shared ones.
func writeLabeledMetrics(buf *bytes.Buffer, snaps []labeledSnapshot, scrapes, sseDropped uint64, prelude func(*omWriter)) {
	w := &omWriter{buf: buf}
	if prelude != nil {
		prelude(w)
	}

	gaugeAll := func(name, unit, help string, val func(*Snapshot) float64) {
		w.family(name, "gauge", unit, help)
		for _, ls := range snaps {
			w.sample(name, val(ls.snap), ls.labels...)
		}
	}
	counterAll := func(name, unit, help string, val func(*Snapshot) float64) {
		w.family(name, "counter", unit, help)
		for _, ls := range snaps {
			w.sample(name+"_total", val(ls.snap), ls.labels...)
		}
	}

	gaugeAll("dcsim_sim_time_seconds", "seconds", "Virtual simulation clock since start.",
		func(s *Snapshot) float64 { return s.SimTimeSeconds })
	gaugeAll("dcsim_sim_speedup_ratio", "", "Configured virtual-per-wall time ratio.",
		func(s *Snapshot) float64 { return s.Speedup })
	counterAll("dcsim_sim_events", "", "Simulation kernel events processed.",
		func(s *Snapshot) float64 { return float64(s.EventsProcessed) })
	w.family("dcsim_scrapes", "counter", "", "Scrapes of this endpoint, including this one.")
	w.sample("dcsim_scrapes_total", float64(scrapes))
	w.family("dcsim_sim_sse_dropped_frames", "counter", "", "SSE frames dropped because a stream subscriber's buffer was full.")
	w.sample("dcsim_sim_sse_dropped_frames_total", float64(sseDropped))

	anyMode := false
	for _, ls := range snaps {
		anyMode = anyMode || ls.snap.Mode != ""
	}
	if anyMode {
		w.family("dcsim_policy_mode", "gauge", "", "Active policy composition (1 on the active mode).")
		for _, ls := range snaps {
			if ls.snap.Mode != "" {
				w.sample("dcsim_policy_mode", 1, lbl(ls.labels, "mode", ls.snap.Mode)...)
			}
		}
		managed := func(name, typ, unit, help, sampleName string, val func(*Snapshot) float64) {
			w.family(name, typ, unit, help)
			for _, ls := range snaps {
				if ls.snap.Mode != "" {
					w.sample(sampleName, val(ls.snap), ls.labels...)
				}
			}
		}
		managed("dcsim_decisions", "counter", "", "Manager decision cycles run.", "dcsim_decisions_total",
			func(s *Snapshot) float64 { return float64(s.Decisions) })
		managed("dcsim_sla_violation_ratio", "gauge", "", "Running fraction of decisions whose response exceeded the SLA.", "dcsim_sla_violation_ratio",
			func(s *Snapshot) float64 { return s.SLAViolationRate })
		managed("dcsim_worst_response_seconds", "gauge", "seconds", "Worst response time observed so far.", "dcsim_worst_response_seconds",
			func(s *Snapshot) float64 { return s.WorstResponseSeconds })
	}

	gaugeAll("dcsim_fleet_size", "", "Total servers in the fleet.",
		func(s *Snapshot) float64 { return float64(s.FleetSize) })
	gaugeAll("dcsim_servers_on", "", "Servers powered on (booting or active).",
		func(s *Snapshot) float64 { return float64(s.OnCount) })
	gaugeAll("dcsim_servers_active", "", "Servers active and serving load.",
		func(s *Snapshot) float64 { return float64(s.ActiveCount) })
	gaugeAll("dcsim_fleet_pstate", "", "Fleet-wide DVFS operating point index.",
		func(s *Snapshot) float64 { return float64(s.PState) })
	w.family("dcsim_switches", "counter", "", "Cumulative server power transitions by direction.")
	for _, ls := range snaps {
		w.sample("dcsim_switches_total", float64(ls.snap.SwitchOns), lbl(ls.labels, "direction", "on")...)
		w.sample("dcsim_switches_total", float64(ls.snap.SwitchOffs), lbl(ls.labels, "direction", "off")...)
	}
	gaugeAll("dcsim_fleet_power_watts", "watts", "Instantaneous IT power draw of the fleet.",
		func(s *Snapshot) float64 { return s.PowerW })
	counterAll("dcsim_fleet_energy_joules", "joules", "Cumulative fleet energy through the last simulation event.",
		func(s *Snapshot) float64 { return s.EnergyJoules })
	counterAll("dcsim_thermal_trips", "", "Protective thermal shutdowns.",
		func(s *Snapshot) float64 { return float64(s.Trips) })
	gaugeAll("dcsim_rebase_drift_watts", "watts", "Aggregate drift discarded at the last fleet rebase (pre-clamp).",
		func(s *Snapshot) float64 { return s.RebaseDriftW })
	gaugeAll("dcsim_rebase_drift_max_watts", "watts", "Largest rebase drift observed over the run.",
		func(s *Snapshot) float64 { return s.RebaseDriftMaxW })

	anyFacility := false
	for _, ls := range snaps {
		anyFacility = anyFacility || ls.snap.Facility != nil
	}
	if anyFacility {
		facility := func(name, typ, unit, help string, emit func(ls labeledSnapshot, f *FacilitySnapshot)) {
			w.family(name, typ, unit, help)
			for _, ls := range snaps {
				if ls.snap.Facility != nil {
					emit(ls, ls.snap.Facility)
				}
			}
		}
		facility("dcsim_pue_ratio", "gauge", "", "Facility PUE at the configured outside conditions.",
			func(ls labeledSnapshot, f *FacilitySnapshot) { w.sample("dcsim_pue_ratio", f.PUE, ls.labels...) })
		facility("dcsim_feed_power_watts", "gauge", "watts", "Utility draw at the facility feed.",
			func(ls labeledSnapshot, f *FacilitySnapshot) {
				w.sample("dcsim_feed_power_watts", f.FeedInputW, ls.labels...)
			})
		facility("dcsim_distribution_loss_watts", "gauge", "watts", "Total loss through the power distribution tree.",
			func(ls labeledSnapshot, f *FacilitySnapshot) {
				w.sample("dcsim_distribution_loss_watts", f.DistLossW, ls.labels...)
			})
		facility("dcsim_rack_power_watts", "gauge", "watts", "Instantaneous power draw per rack.",
			func(ls labeledSnapshot, f *FacilitySnapshot) {
				for i := range f.Racks {
					w.sample("dcsim_rack_power_watts", f.Racks[i].PowerW, lbl(ls.labels, "rack", f.Racks[i].Rack)...)
				}
			})
		facility("dcsim_zone_power_watts", "gauge", "watts", "Instantaneous power draw per cooling zone.",
			func(ls labeledSnapshot, f *FacilitySnapshot) {
				for i := range f.Zones {
					w.sample("dcsim_zone_power_watts", f.Zones[i].PowerW, lbl(ls.labels, "zone", f.Zones[i].Zone)...)
				}
			})
		facility("dcsim_zone_inlet_celsius", "gauge", "celsius", "Inlet temperature per cooling zone, from the telemetry frame.",
			func(ls labeledSnapshot, f *FacilitySnapshot) {
				for i := range f.Zones {
					w.sample("dcsim_zone_inlet_celsius", f.Zones[i].InletC, lbl(ls.labels, "zone", f.Zones[i].Zone)...)
				}
			})
		facility("dcsim_frame_age_seconds", "gauge", "seconds", "Virtual age of the telemetry frame row backing zone inlets (-1 before the first round).",
			func(ls labeledSnapshot, f *FacilitySnapshot) {
				age := -1.0
				if f.FrameAtSeconds >= 0 {
					age = ls.snap.SimTimeSeconds - f.FrameAtSeconds
				}
				w.sample("dcsim_frame_age_seconds", age, ls.labels...)
			})
	}

	gaugeAll("dcsim_carbon_intensity", "", "Grid carbon intensity in gCO2e per kWh at the current virtual time.",
		func(s *Snapshot) float64 { return s.Carbon.IntensityGPerKWh })
	gaugeAll("dcsim_carbon_rate", "", "Instantaneous emission rate in gCO2e per hour at current draw.",
		func(s *Snapshot) float64 { return s.Carbon.RateGPerHour })
	counterAll("dcsim_carbon_grams", "grams", "Cumulative emissions in gCO2e since serving started.",
		func(s *Snapshot) float64 { return s.Carbon.GramsTotal })

	anyUsers := false
	anyRetry := false
	for _, ls := range snaps {
		if u := ls.snap.Users; u != nil {
			anyUsers = true
			anyRetry = anyRetry || u.Retry != nil
		}
	}
	if anyUsers {
		users := func(name, typ, unit, help string, emit func(ls labeledSnapshot, u *UsersSnapshot)) {
			w.family(name, typ, unit, help)
			for _, ls := range snaps {
				if ls.snap.Users != nil {
					emit(ls, ls.snap.Users)
				}
			}
		}
		users("dcsim_offered_users", "counter", "", "Cumulative fresh user arrivals offered to admission control.",
			func(ls labeledSnapshot, u *UsersSnapshot) {
				w.sample("dcsim_offered_users_total", u.OfferedTotal, ls.labels...)
			})
		users("dcsim_admitted_users", "counter", "", "Cumulative users admitted to service.",
			func(ls labeledSnapshot, u *UsersSnapshot) {
				w.sample("dcsim_admitted_users_total", u.AdmittedTotal, ls.labels...)
			})
		users("dcsim_rejected_users", "counter", "", "Cumulative users rejected by admission control.",
			func(ls labeledSnapshot, u *UsersSnapshot) {
				w.sample("dcsim_rejected_users_total", u.RejectedTotal, ls.labels...)
			})
		users("dcsim_degraded_users", "counter", "", "Cumulative admitted users served below full quality.",
			func(ls labeledSnapshot, u *UsersSnapshot) {
				w.sample("dcsim_degraded_users_total", u.DegradedTotal, ls.labels...)
			})
		users("dcsim_deferred_users", "gauge", "", "Users currently parked in the deferral backlog.",
			func(ls labeledSnapshot, u *UsersSnapshot) {
				w.sample("dcsim_deferred_users", u.DeferredBacklog, ls.labels...)
			})
		users("dcsim_fair_share_q", "gauge", "", "Fair share Q = min(1, m/k) granted on the latest admission tick.",
			func(ls labeledSnapshot, u *UsersSnapshot) { w.sample("dcsim_fair_share_q", u.FairShareQ, ls.labels...) })
		users("dcsim_user_shed_level", "gauge", "", "User-facing shedding ladder level (0 = normal fair share).",
			func(ls labeledSnapshot, u *UsersSnapshot) {
				w.sample("dcsim_user_shed_level", float64(u.ShedLevel), ls.labels...)
			})
		users("dcsim_class_admitted_users", "counter", "", "Cumulative admitted users per service class.",
			func(ls labeledSnapshot, u *UsersSnapshot) {
				for i := range u.Classes {
					w.sample("dcsim_class_admitted_users_total", u.Classes[i].AdmittedTotal, lbl(ls.labels, "class", u.Classes[i].Class)...)
				}
			})
		users("dcsim_class_rejected_users", "counter", "", "Cumulative rejected users per service class.",
			func(ls labeledSnapshot, u *UsersSnapshot) {
				for i := range u.Classes {
					w.sample("dcsim_class_rejected_users_total", u.Classes[i].RejectedTotal, lbl(ls.labels, "class", u.Classes[i].Class)...)
				}
			})
		users("dcsim_slo_miss_ratio", "gauge", "", "Fraction of active ticks whose Erlang-C wait exceeded the class SLO.",
			func(ls labeledSnapshot, u *UsersSnapshot) {
				for i := range u.Classes {
					w.sample("dcsim_slo_miss_ratio", u.Classes[i].SLOMissRate, lbl(ls.labels, "class", u.Classes[i].Class)...)
				}
			})
	}
	if anyRetry {
		retry := func(name, typ, unit, help string, emit func(ls labeledSnapshot, rt *RetrySnapshot)) {
			w.family(name, typ, unit, help)
			for _, ls := range snaps {
				if ls.snap.Users != nil && ls.snap.Users.Retry != nil {
					emit(ls, ls.snap.Users.Retry)
				}
			}
		}
		retry("dcsim_fresh_users", "counter", "", "Cumulative first (non-retry) user arrivals into the closed loop.",
			func(ls labeledSnapshot, rt *RetrySnapshot) {
				w.sample("dcsim_fresh_users_total", rt.FreshTotal, ls.labels...)
			})
		retry("dcsim_retried_users", "counter", "", "Cumulative retry re-presentations of turned-away users.",
			func(ls labeledSnapshot, rt *RetrySnapshot) {
				w.sample("dcsim_retried_users_total", rt.RetriedTotal, ls.labels...)
			})
		retry("dcsim_abandoned_users", "counter", "", "Cumulative users who exhausted their retry attempts and gave up.",
			func(ls labeledSnapshot, rt *RetrySnapshot) {
				w.sample("dcsim_abandoned_users_total", rt.AbandonedTotal, ls.labels...)
			})
		retry("dcsim_goodput_users", "counter", "", "Cumulative users that completed service (admitted net of SLO re-entries).",
			func(ls labeledSnapshot, rt *RetrySnapshot) {
				w.sample("dcsim_goodput_users_total", rt.GoodputTotal, ls.labels...)
			})
		retry("dcsim_in_retry_users", "gauge", "", "Users currently parked in retry backoff.",
			func(ls labeledSnapshot, rt *RetrySnapshot) {
				w.sample("dcsim_in_retry_users", rt.InRetry, ls.labels...)
			})
		retry("dcsim_retry_amplification", "gauge", "", "Cumulative attempts over fresh arrivals (1 = no retry inflation).",
			func(ls labeledSnapshot, rt *RetrySnapshot) {
				w.sample("dcsim_retry_amplification", rt.Amplification, ls.labels...)
			})
		retry("dcsim_breaker_state", "gauge", "", "Admission circuit breaker state (1 on the active state).",
			func(ls labeledSnapshot, rt *RetrySnapshot) {
				for _, state := range []string{"closed", "open", "half-open"} {
					v := 0.0
					if rt.BreakerState == state {
						v = 1
					}
					w.sample("dcsim_breaker_state", v, lbl(ls.labels, "state", state)...)
				}
			})
		retry("dcsim_breaker_trips", "counter", "", "Circuit-breaker closed-to-open transitions.",
			func(ls labeledSnapshot, rt *RetrySnapshot) {
				w.sample("dcsim_breaker_trips_total", float64(rt.BreakerTrips), ls.labels...)
			})
	}

	w.eof()
}

// Lint validates an exposition against the OpenMetrics text-format rules
// this package relies on: a single trailing "# EOF", metadata before
// samples, one contiguous block per family, counter samples suffixed
// _total with non-negative values, UNIT names carried as family-name
// suffixes, parseable sample values, and no duplicate (name, labels)
// series. It is intentionally strict: CI feeds live scrapes through it.
func Lint(exposition []byte) error {
	text := string(exposition)
	if !strings.HasSuffix(text, "# EOF\n") {
		return fmt.Errorf("openmetrics: exposition must end with %q", "# EOF\n")
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")

	type familyMeta struct {
		typ     string
		unit    string
		help    bool
		samples int
		closed  bool
	}
	families := map[string]*familyMeta{}
	seen := map[string]bool{} // name{labels} dedup
	var current string        // family of the open block
	eofAt := -1

	openFamily := func(name string) *familyMeta {
		f := families[name]
		if f == nil {
			f = &familyMeta{}
			families[name] = f
		}
		return f
	}

	for i, line := range lines {
		if eofAt >= 0 {
			return fmt.Errorf("openmetrics: line %d: content after # EOF", i+1)
		}
		if line == "# EOF" {
			eofAt = i
			continue
		}
		if line == "" {
			return fmt.Errorf("openmetrics: line %d: empty line", i+1)
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || parts[0] != "#" {
				return fmt.Errorf("openmetrics: line %d: malformed comment %q", i+1, line)
			}
			kw, name := parts[1], parts[2]
			f := openFamily(name)
			if name != current {
				if f.closed || f.samples > 0 {
					return fmt.Errorf("openmetrics: line %d: family %s reopened (blocks must be contiguous)", i+1, name)
				}
				if cur := families[current]; cur != nil {
					cur.closed = true
				}
				current = name
			}
			switch kw {
			case "TYPE":
				if f.typ != "" {
					return fmt.Errorf("openmetrics: line %d: duplicate TYPE for %s", i+1, name)
				}
				if f.samples > 0 {
					return fmt.Errorf("openmetrics: line %d: TYPE after samples for %s", i+1, name)
				}
				if len(parts) < 4 {
					return fmt.Errorf("openmetrics: line %d: TYPE missing value", i+1)
				}
				switch parts[3] {
				case "gauge", "counter", "unknown", "info", "stateset", "summary", "histogram", "gaugehistogram":
				default:
					return fmt.Errorf("openmetrics: line %d: unknown type %q", i+1, parts[3])
				}
				f.typ = parts[3]
			case "UNIT":
				if len(parts) < 4 || parts[3] == "" {
					return fmt.Errorf("openmetrics: line %d: UNIT missing value", i+1)
				}
				if !strings.HasSuffix(name, "_"+parts[3]) {
					return fmt.Errorf("openmetrics: line %d: unit %q is not a suffix of family %s", i+1, parts[3], name)
				}
				f.unit = parts[3]
			case "HELP":
				f.help = true
			default:
				return fmt.Errorf("openmetrics: line %d: unknown comment keyword %q", i+1, kw)
			}
			continue
		}

		// Sample line: name[{labels}] value [timestamp]
		name, rest, err := splitSampleName(line)
		if err != nil {
			return fmt.Errorf("openmetrics: line %d: %v", i+1, err)
		}
		family := name
		suffixed := false
		if strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_created") {
			base := strings.TrimSuffix(strings.TrimSuffix(name, "_total"), "_created")
			if f, ok := families[base]; ok && f.typ == "counter" {
				family, suffixed = base, true
			}
		}
		f, ok := families[family]
		if !ok || f.typ == "" {
			return fmt.Errorf("openmetrics: line %d: sample %s before its TYPE", i+1, name)
		}
		if family != current {
			return fmt.Errorf("openmetrics: line %d: sample %s outside its family block", i+1, name)
		}
		if f.typ == "counter" && !suffixed {
			return fmt.Errorf("openmetrics: line %d: counter sample %s must end in _total", i+1, name)
		}
		if !validMetricName(name) {
			return fmt.Errorf("openmetrics: line %d: invalid metric name %q", i+1, name)
		}
		labels, valuePart, err := splitLabels(rest)
		if err != nil {
			return fmt.Errorf("openmetrics: line %d: %v", i+1, err)
		}
		fields := strings.Fields(valuePart)
		if len(fields) < 1 || len(fields) > 2 {
			return fmt.Errorf("openmetrics: line %d: want value [timestamp], got %q", i+1, valuePart)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return fmt.Errorf("openmetrics: line %d: bad value %q: %v", i+1, fields[0], err)
		}
		if f.typ == "counter" && (v < 0 || math.IsNaN(v)) {
			return fmt.Errorf("openmetrics: line %d: counter %s has non-monotone-capable value %v", i+1, name, v)
		}
		series := name + "{" + labels + "}"
		if seen[series] {
			return fmt.Errorf("openmetrics: line %d: duplicate series %s", i+1, series)
		}
		seen[series] = true
		f.samples++
	}

	if eofAt != len(lines)-1 {
		return fmt.Errorf("openmetrics: missing # EOF terminator")
	}
	for name, f := range families {
		if f.samples == 0 {
			return fmt.Errorf("openmetrics: family %s has metadata but no samples", name)
		}
		if !f.help {
			return fmt.Errorf("openmetrics: family %s missing HELP", name)
		}
	}
	return nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// splitSampleName splits "name{...} v" / "name v" into name and rest.
func splitSampleName(line string) (name, rest string, err error) {
	idx := strings.IndexAny(line, "{ ")
	if idx <= 0 {
		return "", "", fmt.Errorf("malformed sample %q", line)
	}
	return line[:idx], line[idx:], nil
}

// splitLabels consumes an optional {k="v",...} block, returning the
// canonical label text and the remaining value part.
func splitLabels(rest string) (labels, valuePart string, err error) {
	if !strings.HasPrefix(rest, "{") {
		return "", rest, nil
	}
	inQuote := false
	for i := 1; i < len(rest); i++ {
		switch rest[i] {
		case '\\':
			if inQuote {
				i++ // skip escaped char
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				body := rest[1:i]
				if err := checkLabelBody(body); err != nil {
					return "", "", err
				}
				return body, rest[i+1:], nil
			}
		}
	}
	return "", "", fmt.Errorf("unterminated label block %q", rest)
}

func checkLabelBody(body string) error {
	if body == "" {
		return nil
	}
	// Split on commas outside quotes.
	inQuote := false
	start := 0
	var pairs []string
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				pairs = append(pairs, body[start:i])
				start = i + 1
			}
		}
	}
	if inQuote {
		return fmt.Errorf("unterminated quote in labels %q", body)
	}
	pairs = append(pairs, body[start:])
	seen := map[string]bool{}
	for _, p := range pairs {
		eq := strings.Index(p, "=")
		if eq <= 0 {
			return fmt.Errorf("malformed label pair %q", p)
		}
		k, v := p[:eq], p[eq+1:]
		if !validMetricName(k) || strings.Contains(k, ":") {
			return fmt.Errorf("invalid label name %q", k)
		}
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("label value %q not quoted", v)
		}
		if seen[k] {
			return fmt.Errorf("duplicate label %q", k)
		}
		seen[k] = true
	}
	return nil
}
