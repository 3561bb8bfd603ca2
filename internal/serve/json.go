package serve

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The snapshot JSON encoder, written by hand like the OpenMetrics
// writer: every SSE frame carries a full snapshot, so encoding sits on
// the serving hot path, and appending field by field needs neither
// reflection nor an intermediate buffer. It appends exactly the bytes
// json.Marshal writes for the same value — same field order, omitempty
// rules, float formatting and string escaping — and the tests hold it
// to that with encoding/json as the oracle. A field added to a snapshot
// type must be added here and to the tests' random snapshots.

// appendSnapshotJSON appends snap's compact JSON encoding to dst. It
// fails, as json.Marshal does, when any float is NaN or infinite.
func appendSnapshotJSON(dst []byte, snap *Snapshot) ([]byte, error) {
	w := jsonWriter{b: dst}
	w.raw(`{`)
	w.snapshotBody(snap)
	w.raw(`}`)
	return w.b, w.err
}

// appendGeoSnapshotJSON appends snap's compact JSON encoding to dst,
// failing like appendSnapshotJSON.
func appendGeoSnapshotJSON(dst []byte, snap *GeoSnapshot) ([]byte, error) {
	w := jsonWriter{b: dst}
	w.uint(`{"seq":`, snap.Seq)
	w.float(`,"sim_time_seconds":`, snap.SimTimeSeconds)
	w.float(`,"speedup":`, snap.Speedup)
	w.str(`,"mode":`, snap.Mode)
	w.int(`,"epochs":`, snap.Epochs)
	w.float(`,"power_w":`, snap.PowerW)
	w.float(`,"energy_joules":`, snap.EnergyJoules)
	w.float(`,"grams_co2e":`, snap.GramsCO2e)
	writeList(&w, `,"sites":`, snap.Sites, func(site *GeoSiteSnapshot) {
		// GeoSiteSnapshot embeds Snapshot: its own fields come first,
		// then the embedded fields inline.
		w.str(`{"site":`, site.Site)
		w.float(`,"tz_offset_seconds":`, site.TZOffsetSeconds)
		w.float(`,"route_weight":`, site.RouteWeight)
		w.raw(`,`)
		w.snapshotBody(&site.Snapshot)
		w.raw(`}`)
	})
	w.raw(`}`)
	return w.b, w.err
}

// jsonWriter appends JSON to b and keeps the first error.
type jsonWriter struct {
	b   []byte
	err error
}

// snapshotBody writes snap's fields without the enclosing braces.
func (w *jsonWriter) snapshotBody(s *Snapshot) {
	w.uint(`"seq":`, s.Seq)
	w.float(`,"sim_time_seconds":`, s.SimTimeSeconds)
	w.float(`,"speedup":`, s.Speedup)
	w.uint(`,"events_processed":`, s.EventsProcessed)
	if s.Mode != "" {
		w.str(`,"mode":`, s.Mode)
	}
	w.int(`,"pstate":`, int64(s.PState))
	w.int(`,"decisions":`, s.Decisions)
	w.float(`,"sla_violation_rate":`, s.SLAViolationRate)
	w.float(`,"worst_response_seconds":`, s.WorstResponseSeconds)
	w.int(`,"fleet_size":`, int64(s.FleetSize))
	w.int(`,"on_count":`, int64(s.OnCount))
	w.int(`,"active_count":`, int64(s.ActiveCount))
	w.int(`,"switch_ons":`, int64(s.SwitchOns))
	w.int(`,"switch_offs":`, int64(s.SwitchOffs))
	w.float(`,"power_w":`, s.PowerW)
	w.float(`,"energy_joules":`, s.EnergyJoules)
	w.int(`,"trips":`, int64(s.Trips))
	w.float(`,"rebase_drift_w":`, s.RebaseDriftW)
	w.float(`,"rebase_drift_max_w":`, s.RebaseDriftMaxW)
	if f := s.Facility; f != nil {
		w.float(`,"facility":{"pue":`, f.PUE)
		w.float(`,"feed_input_w":`, f.FeedInputW)
		w.float(`,"dist_loss_w":`, f.DistLossW)
		writeList(w, `,"racks":`, f.Racks, func(r *RackSnapshot) {
			w.str(`{"rack":`, r.Rack)
			w.float(`,"power_w":`, r.PowerW)
			w.raw(`}`)
		})
		writeList(w, `,"zones":`, f.Zones, func(z *ZoneSnapshot) {
			w.str(`{"zone":`, z.Zone)
			w.float(`,"power_w":`, z.PowerW)
			w.float(`,"inlet_c":`, z.InletC)
			w.raw(`}`)
		})
		w.float(`,"frame_at_seconds":`, f.FrameAtSeconds)
		w.raw(`}`)
	}
	w.float(`,"carbon":{"intensity_g_per_kwh":`, s.Carbon.IntensityGPerKWh)
	w.float(`,"rate_g_per_hour":`, s.Carbon.RateGPerHour)
	w.float(`,"grams_total":`, s.Carbon.GramsTotal)
	w.raw(`}`)
	if u := s.Users; u != nil {
		w.float(`,"users":{"offered_total":`, u.OfferedTotal)
		w.float(`,"admitted_total":`, u.AdmittedTotal)
		w.float(`,"rejected_total":`, u.RejectedTotal)
		w.float(`,"degraded_total":`, u.DegradedTotal)
		w.float(`,"deferred_backlog":`, u.DeferredBacklog)
		w.float(`,"fair_share_q":`, u.FairShareQ)
		w.int(`,"shed_level":`, int64(u.ShedLevel))
		if r := u.Retry; r != nil {
			w.float(`,"retry":{"fresh_total":`, r.FreshTotal)
			w.float(`,"retried_total":`, r.RetriedTotal)
			w.float(`,"abandoned_total":`, r.AbandonedTotal)
			w.float(`,"goodput_total":`, r.GoodputTotal)
			w.float(`,"in_retry":`, r.InRetry)
			w.float(`,"retry_amplification":`, r.Amplification)
			w.str(`,"breaker_state":`, r.BreakerState)
			w.int(`,"breaker_trips":`, r.BreakerTrips)
			w.raw(`}`)
		}
		writeList(w, `,"classes":`, u.Classes, func(c *UserClassSnapshot) {
			w.str(`{"class":`, c.Class)
			w.float(`,"admitted_total":`, c.AdmittedTotal)
			w.float(`,"rejected_total":`, c.RejectedTotal)
			w.float(`,"degraded_total":`, c.DegradedTotal)
			w.float(`,"slo_miss_rate":`, c.SLOMissRate)
			w.raw(`}`)
		})
		w.raw(`}`)
	}
}

// writeList writes key and then s as a JSON array, null when s is nil
// (as encoding/json writes a nil slice), with elem writing each element.
func writeList[T any](w *jsonWriter, key string, s []T, elem func(*T)) {
	w.raw(key)
	if s == nil {
		w.raw(`null`)
		return
	}
	w.raw(`[`)
	for i := range s {
		if i > 0 {
			w.raw(`,`)
		}
		elem(&s[i])
	}
	w.raw(`]`)
}

// raw writes JSON punctuation and keys. The value writers below write
// a key (with its leading comma, if any) and then the value.
func (w *jsonWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *jsonWriter) int(key string, v int64) {
	w.b = strconv.AppendInt(append(w.b, key...), v, 10)
}

func (w *jsonWriter) uint(key string, v uint64) {
	w.b = strconv.AppendUint(append(w.b, key...), v, 10)
}

// float formats v as encoding/json does (ES6 number-to-string): 'f'
// format, or 'e' with a one-digit negative exponent left unpadded when
// |v| < 1e-6 or |v| >= 1e21. JSON has no NaN or Inf: like json.Marshal,
// the encoding then fails.
func (w *jsonWriter) float(key string, v float64) {
	w.raw(key)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("serve: unsupported JSON value %v", v)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		b := w.b
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			w.b = b[:n-1]
		}
	}
}

// str writes s as a JSON string with encoding/json's default escaping:
// HTML-sensitive <, > and & as \u003c-style escapes, the short
// escapes for \b \f \n \r \t, \u00XX for other control bytes, the
// six-character \ufffd for each invalid UTF-8 byte, and U+2028/U+2029
// escaped.
func (w *jsonWriter) str(key, s string) {
	const hex = "0123456789abcdef"
	b := append(append(w.b, key...), '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}
