package server

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"canids/internal/detect"
	"canids/internal/trace"
)

// TestRetryAfterHint pins the 429 Retry-After derivation: at least the
// shed bound the client already waited out, scaled by backlog, never
// absurd.
func TestRetryAfterHint(t *testing.T) {
	mk := func(shed time.Duration, capacity, backlog int) *Server {
		s := &Server{cfg: Config{ShedAfter: shed}, feed: make(chan []trace.Record, capacity)}
		for i := 0; i < backlog; i++ {
			s.feed <- nil
		}
		return s
	}
	cases := []struct {
		shed              time.Duration
		capacity, backlog int
		want              string
	}{
		{5 * time.Second, 10, 0, "5"},      // idle feed: the shed bound itself
		{5 * time.Second, 10, 10, "10"},    // saturated feed: doubled
		{5 * time.Second, 10, 5, "8"},      // half full: 7.5s rounded up
		{30 * time.Millisecond, 4, 0, "1"}, // sub-second bounds round up to 1
		{0, 4, 4, "2"},                     // unset shed falls back to 1s
		{time.Hour, 2, 2, "300"},           // capped: never send clients away for hours
	}
	for _, c := range cases {
		if got := mk(c.shed, c.capacity, c.backlog).retryAfterHint(); got != c.want {
			t.Errorf("retryAfterHint(shed=%v, %d/%d backlog) = %s, want %s",
				c.shed, c.backlog, c.capacity, got, c.want)
		}
	}
}

func mkAlert(i int) (string, detect.Alert) {
	return fmt.Sprintf("bus-%d", i%3), detect.Alert{
		Detector:    "entropy",
		WindowStart: time.Duration(i) * time.Second,
		WindowEnd:   time.Duration(i+1) * time.Second,
		Frames:      i,
		Score:       float64(i),
	}
}

// TestAlertRingWrapOrdering drives the circular buffer through every
// fill state against a plain-slice reference: Alerts(n) must keep the
// pre-ring semantics exactly — the newest min(n, retained) alerts,
// oldest first.
func TestAlertRingWrapOrdering(t *testing.T) {
	const capacity = 8
	s := &Server{cfg: Config{MaxAlerts: capacity}}
	var ref []TaggedAlert
	for i := 0; i < 3*capacity+5; i++ {
		ch, a := mkAlert(i)
		s.recordAlert(ch, a)
		ref = append(ref, TaggedAlert{Channel: ch, Alert: a})
		if len(ref) > capacity {
			ref = ref[1:]
		}
		for _, n := range []int{0, 1, capacity / 2, capacity, capacity + 7} {
			got := s.Alerts(n)
			wantN := n
			if n <= 0 || n > len(ref) {
				wantN = len(ref)
			}
			want := ref[len(ref)-wantN:]
			if len(got) != len(want) {
				t.Fatalf("after %d alerts: Alerts(%d) returned %d, want %d", i+1, n, len(got), len(want))
			}
			for j := range want {
				if !reflect.DeepEqual(got[j], want[j]) {
					t.Fatalf("after %d alerts: Alerts(%d)[%d] = %+v, want %+v", i+1, n, j, got[j], want[j])
				}
			}
		}
	}
	if total := s.AlertsTotal(); total != uint64(3*capacity+5) {
		t.Errorf("AlertsTotal = %d, want %d", total, 3*capacity+5)
	}
}

// TestAlertRingSteadyStateAllocs is the satellite's regression guard:
// once the ring is full, retaining an alert allocates nothing — the
// old slice-shift implementation reallocated and copied the whole
// window every ~MaxAlerts alerts.
func TestAlertRingSteadyStateAllocs(t *testing.T) {
	s := &Server{cfg: Config{MaxAlerts: 64}}
	ch, a := mkAlert(1)
	for i := 0; i < 2*64; i++ {
		s.recordAlert(ch, a)
	}
	if allocs := testing.AllocsPerRun(1000, func() { s.recordAlert(ch, a) }); allocs != 0 {
		t.Errorf("steady-state recordAlert allocates %.1f objects per alert, want 0", allocs)
	}
}
