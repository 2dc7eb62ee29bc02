package hist

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// refIndex is a linear-scan reference for bucketIndex.
func refIndex(n uint64) int {
	for i := 0; i < numBounds; i++ {
		if n <= boundNanos(i) {
			return i
		}
	}
	return numBuckets - 1
}

func TestBucketIndexMatchesReference(t *testing.T) {
	// Exhaustive around every boundary plus a pseudo-random sweep.
	var probes []uint64
	for i := 0; i < numBounds; i++ {
		b := boundNanos(i)
		probes = append(probes, b-1, b, b+1)
	}
	probes = append(probes, 0, 1, 2, 1<<40, 1<<62)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100000; i++ {
		probes = append(probes, rng.Uint64()>>uint(rng.Intn(40)))
	}
	for _, n := range probes {
		if got, want := bucketIndex(n), refIndex(n); got != want {
			t.Fatalf("bucketIndex(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBoundsStrictlyIncreasing(t *testing.T) {
	bs := Bounds()
	if len(bs) != numBounds {
		t.Fatalf("Bounds() len = %d, want %d", len(bs), numBounds)
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("bounds not increasing at %d: %g <= %g", i, bs[i], bs[i-1])
		}
	}
	if bs[0] != 4096e-9 {
		t.Fatalf("first bound = %g, want 4.096e-06", bs[0])
	}
	if want := float64(uint64(1)<<36) / 1e9; bs[len(bs)-1] != want {
		t.Fatalf("last bound = %g, want %g", bs[len(bs)-1], want)
	}
}

func TestObserveAndSnapshot(t *testing.T) {
	h := New()
	h.Observe(time.Microsecond)     // bucket 0
	h.Observe(-time.Second)         // clamps to 0, bucket 0
	h.Observe(5 * time.Millisecond) // mid-range
	h.Observe(90 * time.Second)     // overflow
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
	if s.Buckets[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2", s.Buckets[0])
	}
	if s.Buckets[numBuckets-1] != 1 {
		t.Fatalf("overflow = %d, want 1", s.Buckets[numBuckets-1])
	}
	wantSum := int64(time.Microsecond + 5*time.Millisecond + 90*time.Second)
	if s.SumNanos != wantSum {
		t.Fatalf("SumNanos = %d, want %d", s.SumNanos, wantSum)
	}
	if h.Count() != 4 {
		t.Fatalf("Count() = %d, want 4", h.Count())
	}
}

func TestNilReceiver(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if h.Count() != 0 {
		t.Fatal("nil Count != 0")
	}
	if s := h.Snapshot(); s.Count != 0 || s.SumNanos != 0 {
		t.Fatal("nil Snapshot not zero")
	}
}

func TestWritePromFormat(t *testing.T) {
	h := New()
	h.Observe(time.Microsecond)
	h.Observe(10 * time.Millisecond)
	h.Observe(90 * time.Second) // overflow: only visible at +Inf
	var b bytes.Buffer
	h.WriteProm(&b, "x_seconds", `bus="a"`)
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if want := numBounds + 3; len(lines) != want { // buckets + Inf + sum + count
		t.Fatalf("got %d lines, want %d", len(lines), want)
	}
	// Cumulative buckets must be non-decreasing and end below +Inf.
	var prev uint64
	for i := 0; i < numBounds; i++ {
		var v uint64
		var le string
		if _, err := parseBucketLine(lines[i], "x_seconds", `bus="a"`, &le, &v); err != nil {
			t.Fatalf("line %d: %v (%q)", i, err, lines[i])
		}
		if v < prev {
			t.Fatalf("cumulative decreased at line %d: %d < %d", i, v, prev)
		}
		prev = v
	}
	if lines[numBounds] != `x_seconds_bucket{bus="a",le="+Inf"} 3` {
		t.Fatalf("+Inf line = %q", lines[numBounds])
	}
	if prev != 2 {
		t.Fatalf("last finite cumulative = %d, want 2 (overflow excluded)", prev)
	}
	if lines[numBounds+2] != `x_seconds_count{bus="a"} 3` {
		t.Fatalf("count line = %q", lines[numBounds+2])
	}
	if !strings.HasPrefix(lines[numBounds+1], `x_seconds_sum{bus="a"} `) {
		t.Fatalf("sum line = %q", lines[numBounds+1])
	}

	// No labels: series names must not carry empty braces.
	var nb bytes.Buffer
	h.WriteProm(&nb, "y_seconds", "")
	if !strings.Contains(nb.String(), "y_seconds_sum ") || strings.Contains(nb.String(), "y_seconds_sum{}") {
		t.Fatalf("label-free sum malformed:\n%s", nb.String())
	}
}

func parseBucketLine(line, name, labels string, le *string, v *uint64) (int, error) {
	prefix := name + "_bucket{" + labels + `,le="`
	rest, ok := strings.CutPrefix(line, prefix)
	if !ok {
		return 0, errFormat(line)
	}
	i := strings.Index(rest, `"} `)
	if i < 0 {
		return 0, errFormat(line)
	}
	*le = rest[:i]
	var n uint64
	for _, c := range rest[i+3:] {
		if c < '0' || c > '9' {
			return 0, errFormat(line)
		}
		n = n*10 + uint64(c-'0')
	}
	*v = n
	return 0, nil
}

type errFormat string

func (e errFormat) Error() string { return "bad bucket line: " + string(e) }

func TestWritePromByteStable(t *testing.T) {
	h := New()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		h.Observe(time.Duration(rng.Int63n(int64(2 * time.Minute))))
	}
	var a, b bytes.Buffer
	h.WriteProm(&a, "canids_pipeline_latency_seconds", `bus="ms-can"`)
	h.WriteProm(&b, "canids_pipeline_latency_seconds", `bus="ms-can"`)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two scrapes of equal state differ")
	}
}

func TestConcurrentObserve(t *testing.T) {
	h := New()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(int64(w))
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
}

func TestObserveAllocFree(t *testing.T) {
	h := New()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Millisecond) }); n != 0 {
		t.Fatalf("Observe allocates %v/op", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Observe(time.Millisecond) }); n != 0 {
		t.Fatalf("nil Observe allocates %v/op", n)
	}
}
