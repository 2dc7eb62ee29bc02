package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"canids/internal/attack"
	"canids/internal/can"
	"canids/internal/trace"
	"canids/internal/vehicle"
)

// update rewrites the golden transcripts instead of asserting against
// them:
//
//	go test ./cmd/canids -run TestWatchGolden -update
//
// Do this only when a change intentionally moves what -watch prints,
// and say so in the commit.
var update = flag.Bool("update", false, "rewrite golden files")

// doneTiming is the wall-clock part of the -watch summary line.
var doneTiming = regexp.MustCompile(`^(done: \d+ frames) in [^ ]+ \(\d+ frames/s\)`)

// maskTranscript makes a -watch transcript comparable across runs: the
// scratch directory becomes $DIR, the summary's wall-clock timing is
// masked, and each run of bus-tagged ALERT lines is stably sorted by bus
// (the supervisor's sink interleaves buses in goroutine order; each
// bus's own order is deterministic and kept).
func maskTranscript(text, dir string) string {
	lines := strings.Split(strings.ReplaceAll(text, dir, "$DIR"), "\n")
	for i, line := range lines {
		lines[i] = doneTiming.ReplaceAllString(line, "$1 in <masked>")
	}
	tag := func(line string) string {
		if rest, ok := strings.CutPrefix(line, "  ALERT ["); ok {
			return rest[:strings.IndexByte(rest, ']')+1]
		}
		return ""
	}
	for i := 0; i < len(lines); {
		j := i
		for j < len(lines) && tag(lines[j]) != "" {
			j++
		}
		if j == i {
			i++
			continue
		}
		slices.SortStableFunc(lines[i:j], func(a, b string) int { return strings.Compare(tag(a), tag(b)) })
		i = j
	}
	return strings.Join(lines, "\n")
}

// goldenTranscript compares one masked transcript against its file
// under testdata/golden.
func goldenTranscript(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s missing (generate with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s: -watch transcript drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestWatchGolden pins whole -watch transcripts — alerts, blocks,
// quarantines, prevention and detection scores, frame and window counts
// — for scenario runs with prevention and with baselines, a multi-bus
// prevention run over files, and a -save → -load round trip.
func TestWatchGolden(t *testing.T) {
	dir := t.TempDir()
	watch := func(t *testing.T, args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{"-watch", "-metrics", "0"}, args...), &out); err != nil {
			t.Fatalf("watch %v: %v\n%s", args, err, out.String())
		}
		return maskTranscript(out.String(), dir)
	}

	t.Run("prevent", func(t *testing.T) {
		goldenTranscript(t, "watch_prevent.txt", watch(t, "-scenario", "fusion/idle/SI-100",
			"-alpha", "4", "-prevent", "-rate-slack", "4", "-whitelist"))
	})
	t.Run("baselines", func(t *testing.T) {
		goldenTranscript(t, "watch_baselines.txt", watch(t, "-scenario", "fusion/idle/FI-500",
			"-alpha", "4", "-baselines"))
	})
	t.Run("multibus", func(t *testing.T) {
		clean := makeCapture(t, dir, "clean.csv", vehicle.Idle, 5, 8*time.Second, nil)
		tmpl := filepath.Join(dir, "template.json")
		if err := run([]string{"-train", "-o", tmpl, clean}, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		attacked := makeCapture(t, dir, "attacked.csv", vehicle.Idle, 7, 10*time.Second, &attack.Config{
			Scenario: attack.Single, IDs: []can.ID{0x0B5}, Frequency: 100, Start: 2 * time.Second, Seed: 9,
		})
		tr, err := readLog(attacked)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr {
			tr[i].Channel = []string{"can-a", "can-b"}[i%2]
		}
		mixed := filepath.Join(dir, "mixed.csv")
		f, err := os.Create(mixed)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteCSV(f, tr); err != nil {
			t.Fatal(err)
		}
		f.Close()
		goldenTranscript(t, "watch_multibus.txt", watch(t, "-template", tmpl, "-alpha", "4",
			"-multibus", "-prevent", mixed))
	})
	t.Run("save-load", func(t *testing.T) {
		snap := filepath.Join(dir, "model.snap")
		goldenTranscript(t, "watch_save.txt", watch(t, "-scenario", "fusion/idle/SI-100", "-alpha", "4",
			"-prevent", "-rate-slack", "4", "-whitelist", "-quarantine", "20s", "-save", snap))
		goldenTranscript(t, "watch_load.txt", watch(t, "-scenario", "fusion/idle/SI-100",
			"-prevent", "-load", snap))
	})
}
