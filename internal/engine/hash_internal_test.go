package engine

import (
	"fmt"
	"testing"
)

// TestHostOfSpread pins the fleet's channel→host assignment on the
// vehicle fleets the serving tools run (64 "veh-%02d" vehicles in the
// fleet benchmark, 10 "veh-%d" in the CI fleet smoke): every host gets
// at least half an even share, and growing K to K+1 moves only the
// channels the new host wins.
func TestHostOfSpread(t *testing.T) {
	for _, fleet := range []struct {
		format string
		n      int
		ks     []int
	}{
		{"veh-%02d", 64, []int{2, 4, 8}},
		{"veh-%d", 10, []int{2}},
	} {
		names := make([]string, fleet.n)
		for i := range names {
			names[i] = fmt.Sprintf(fleet.format, i)
		}
		for _, k := range fleet.ks {
			counts := make([]int, k)
			for _, ch := range names {
				counts[hostOf(ch, k)]++
			}
			for h, n := range counts {
				if 2*n*k < len(names) {
					t.Errorf("%s, K=%d: host %d holds %d of %d vehicles (spread %v)", fleet.format, k, h, n, len(names), counts)
				}
			}
		}
		for k := 1; k < 8; k++ {
			for _, ch := range names {
				if from, to := hostOf(ch, k), hostOf(ch, k+1); from != to && to != k {
					t.Errorf("%s, K=%d→%d: %s moved from host %d to old host %d", fleet.format, k, k+1, ch, from, to)
				}
			}
		}
	}
	for _, ch := range []string{"veh-00", "can-a", ""} {
		if h := hostOf(ch, 1); h != 0 {
			t.Errorf("hostOf(%q, 1) = %d", ch, h)
		}
	}
}
