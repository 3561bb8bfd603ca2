package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// indentedJSON is what /api/v1/snapshot served when it encoded with
// encoding/json: json.Encoder with SetIndent("", "  ").
func indentedJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func getBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("GET %s: Content-Type %q", path, ct)
	}
	return rec.Body.Bytes()
}

// TestSnapshotEndpointBytes checks /api/v1/snapshot byte for byte
// against encoding/json's indented output for the same snapshot, on a
// facility with users, retry and facility sections and on a federation.
func TestSnapshotEndpointBytes(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		s, _ := retryTestServer(t)
		if err := s.AdvanceTo(90 * time.Minute); err != nil {
			t.Fatal(err)
		}
		got := getBody(t, s.Handler(), "/api/v1/snapshot")
		snap := s.Snapshot()
		if snap.Facility == nil || snap.Users == nil || snap.Users.Retry == nil {
			t.Fatalf("snapshot lacks a section the test covers: %+v", snap)
		}
		if want := indentedJSON(t, snap); !bytes.Equal(got, want) {
			t.Errorf("snapshot body differs from encoding/json:\n got %s\nwant %s", got, want)
		}
	})
	t.Run("geo", func(t *testing.T) {
		s := geoTestServer(t, 3, 3, Options{Speedup: 3600})
		if err := s.AdvanceTo(90 * time.Minute); err != nil {
			t.Fatal(err)
		}
		got := getBody(t, s.Handler(), "/api/v1/snapshot")
		if want := indentedJSON(t, s.Snapshot()); !bytes.Equal(got, want) {
			t.Errorf("geo snapshot body differs from encoding/json:\n got %s\nwant %s", got, want)
		}
	})
}

// TestEmitAllocs pins what a forced emit allocates on a 1k-server
// facility: nothing with no stream subscribed (no snapshot is built or
// encoded), and only the published frame with one draining subscriber.
func TestEmitAllocs(t *testing.T) {
	s, _ := testServer(t, 1, 1000, Options{Speedup: 3600})
	if err := s.AdvanceTo(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	emit := func() {
		s.nextEmit = s.src.Engine.Now()
		s.emitIfDue()
	}
	const runs = 50
	seq := s.seq.Load()
	if got := testing.AllocsPerRun(runs, emit); got != 0 {
		t.Errorf("emit with no subscriber: %v allocs, want 0", got)
	}
	// AllocsPerRun makes one warm-up call before the measured runs.
	if got, want := s.seq.Load(), seq+runs+1; got != want {
		t.Errorf("seq = %d after unsubscribed emits, want %d", got, want)
	}

	ch := s.sse.subscribe()
	frames := make(chan int)
	go func() {
		n := 0
		for range ch {
			n++
		}
		frames <- n
	}()
	if got := testing.AllocsPerRun(runs, emit); got > 1 {
		t.Errorf("emit with one subscriber: %v allocs, want at most 1 (the frame)", got)
	}
	s.Shutdown() // closes ch
	if n := <-frames; n == 0 {
		t.Error("subscriber received no frames")
	}
}

// BenchmarkEmitSnapshot measures one forced emit (build, encode,
// publish) with one draining subscriber.
func BenchmarkEmitSnapshot(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("servers=%dk", n/1000), func(b *testing.B) {
			s, _ := testServer(b, 1, n, Options{Speedup: 3600})
			if err := s.AdvanceTo(5 * time.Minute); err != nil {
				b.Fatal(err)
			}
			ch := s.sse.subscribe()
			done := make(chan struct{})
			go func() {
				for range ch {
				}
				close(done)
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.nextEmit = s.src.Engine.Now()
				s.emitIfDue()
			}
			b.StopTimer()
			s.Shutdown()
			<-done
		})
	}
}

// TestSSEDroppedFrames: a subscriber that never reads holds 16 frames in
// its buffer, so of 16+k publishes k are dropped, and both servers
// count them on /metrics.
func TestSSEDroppedFrames(t *testing.T) {
	const k = 5
	check := func(t *testing.T, h http.Handler) {
		t.Helper()
		ts := httptest.NewServer(h)
		defer ts.Close()
		samples, body := scrape(t, ts.URL) // lints the exposition
		if got := samples["dcsim_sim_sse_dropped_frames_total"]; got != k {
			t.Errorf("dcsim_sim_sse_dropped_frames_total = %v, want %d\n%s", got, k, body)
		}
	}
	t.Run("server", func(t *testing.T) {
		s, _ := testServer(t, 4, 10, Options{Speedup: 3600, EmitEvery: 15 * time.Second})
		s.sse.subscribe()
		for i := 1; i <= 16+k; i++ {
			if err := s.AdvanceTo(time.Duration(i) * 15 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
		check(t, s.Handler())
	})
	t.Run("geo", func(t *testing.T) {
		s := geoTestServer(t, 5, 2, Options{Speedup: 3600, EmitEvery: 5 * time.Minute})
		s.sse.subscribe()
		for i := 1; i <= 16+k; i++ {
			if err := s.AdvanceTo(time.Duration(i) * 5 * time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		check(t, s.Handler())
	})
}
