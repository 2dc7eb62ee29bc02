package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"canids/internal/attack"
	"canids/internal/bus"
	"canids/internal/dataset"
	"canids/internal/sim"
	"canids/internal/trace"
	"canids/internal/vehicle"
)

// fixturePath points at a committed dataset fixture.
func fixturePath(name string) string {
	return filepath.Join("..", "..", "internal", "dataset", "testdata", name)
}

// makeDialectCapture simulates traffic (optionally attacked) and writes
// it in a dataset dialect, mirroring what cangen -dialect does.
func makeDialectCapture(t *testing.T, dir, name string, d dataset.Dialect, seed int64,
	dur time.Duration, epoch time.Duration, atk *attack.Config) string {

	t.Helper()
	sched := sim.NewScheduler()
	b, err := bus.New(sched, bus.Config{BitRate: bus.DefaultMSCANBitRate, Channel: "ms-can"})
	if err != nil {
		t.Fatal(err)
	}
	var log trace.Trace
	b.Tap(func(r trace.Record) { log = append(log, r) })
	profile := vehicle.NewFusionProfile(seed)
	profile.Attach(sched, b, vehicle.Options{Scenario: vehicle.Idle, Seed: seed})
	if atk != nil {
		cfg := *atk
		if cfg.IDs == nil && cfg.Scenario != attack.Flood {
			cfg.IDs = profile.IDSet()[:1]
		}
		if _, err := attack.Launch(sched, b, nil, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.RunUntil(dur); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.Write(f, d, log, epoch); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEvalShardDeterminism pins the acceptance contract: the entire
// -eval transcript over a committed fixture is byte-identical at shards
// 1, 2 and 8.
func TestEvalShardDeterminism(t *testing.T) {
	fixture := fixturePath("hcrl.csv")
	if _, err := os.Stat(fixture); err != nil {
		t.Fatalf("committed fixture missing: %v", err)
	}
	var ref []byte
	for _, shards := range []string{"1", "2", "8"} {
		var out bytes.Buffer
		if err := run([]string{"-eval", fixture, "-shards", shards}, &out); err != nil {
			t.Fatalf("-eval -shards %s: %v", shards, err)
		}
		if ref == nil {
			ref = out.Bytes()
			continue
		}
		if !bytes.Equal(out.Bytes(), ref) {
			t.Fatalf("-shards %s transcript differs from -shards 1:\n%s\nvs\n%s", shards, out.Bytes(), ref)
		}
	}
	if !strings.Contains(string(ref), "Dr") || !strings.Contains(string(ref), "accounting hcrl.csv:") {
		t.Fatalf("transcript missing table or accounting:\n%s", ref)
	}
}

// TestEvalFixtureAccounting checks every committed fixture evaluates
// with exact row accounting and full detection on the labeled ones.
func TestEvalFixtureAccounting(t *testing.T) {
	for _, name := range []string{"hcrl.csv", "survival.csv", "otids.log"} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-eval", fixturePath(name)}, &out); err != nil {
				t.Fatalf("-eval: %v", err)
			}
			s := out.String()
			if !strings.Contains(s, "accounting "+name+": ") {
				t.Fatalf("no accounting line:\n%s", s)
			}
			if !strings.Contains(s, "skipped=0") || !strings.Contains(s, "late=0") {
				t.Fatalf("clean fixture import skipped rows:\n%s", s)
			}
			if name == "otids.log" {
				// Unlabeled dialect: no ground-truth columns.
				if !strings.Contains(s, "--") {
					t.Fatalf("unlabeled capture should print -- for Dr/FPR:\n%s", s)
				}
			} else if !strings.Contains(s, "missed=0") {
				t.Fatalf("labeled fixture not fully detected:\n%s", s)
			}
		})
	}
}

// TestEvalDirectoryCleanCaptureTrains evaluates a directory where a
// labeled attack-free capture coexists with an attacked one: the clean
// file must train wholly and only the attacked file must be scored.
func TestEvalDirectoryCleanCaptureTrains(t *testing.T) {
	dir := t.TempDir()
	makeDialectCapture(t, dir, "attack_free.csv", dataset.DialectHCRL, 1, 5*time.Second, 0, nil)
	makeDialectCapture(t, dir, "flooded.csv", dataset.DialectHCRL, 1, 5*time.Second, 0, &attack.Config{
		Scenario:  attack.Flood,
		Frequency: 300,
		Start:     time.Second,
		Seed:      7,
	})
	var out bytes.Buffer
	if err := run([]string{"-eval", dir}, &out); err != nil {
		t.Fatalf("-eval dir: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "training: attack_free.csv") || !strings.Contains(s, "whole capture") {
		t.Fatalf("clean capture did not train wholly:\n%s", s)
	}
	if strings.Contains(s, "accounting attack_free.csv") {
		t.Fatalf("training capture leaked into the score table:\n%s", s)
	}
	if !strings.Contains(s, "accounting flooded.csv") {
		t.Fatalf("attacked capture not evaluated:\n%s", s)
	}
}

// TestEvalDialectOverride forces a dialect on a file whose sniff would
// disagree, and rejects an unknown override with the supported list.
func TestEvalDialectOverride(t *testing.T) {
	dir := t.TempDir()
	// A survival-dialect capture named like an HCRL file: the sniffer
	// would classify it fine, but an explicit override must also work.
	path := makeDialectCapture(t, dir, "capture.txt", dataset.DialectSurvival, 1, 4*time.Second, 0, &attack.Config{
		Scenario:  attack.Flood,
		Frequency: 200,
		Start:     2 * time.Second,
		Seed:      5,
	})
	var out bytes.Buffer
	if err := run([]string{"-eval", path, "-eval-dialect", "survival"}, &out); err != nil {
		t.Fatalf("-eval-dialect survival: %v", err)
	}
	if !strings.Contains(out.String(), "survival") {
		t.Fatalf("transcript does not name the dialect:\n%s", out.String())
	}

	err := run([]string{"-eval", path, "-eval-dialect", "pcap"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "hcrl") {
		t.Fatalf("unknown override error %v must list supported dialects", err)
	}
}

// TestEvalSniffFailureListsDialects feeds an undecidable file and wants
// the error to enumerate what would have been accepted.
func TestEvalSniffFailureListsDialects(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.bin")
	if err := os.WriteFile(path, []byte("not a capture\nstill not\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-eval", path}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("sniffing garbage succeeded")
	}
	for _, name := range []string{"hcrl", "survival", "otids"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("sniff error %q does not name %q", err, name)
		}
	}
}

// TestEvalFlagValidation covers the mode cross-checks.
func TestEvalFlagValidation(t *testing.T) {
	fixture := fixturePath("hcrl.csv")
	cases := [][]string{
		{"-eval", fixture, "-eval-split", "0"},
		{"-eval", fixture, "-eval-split", "1"},
		{"-eval-split", "0.5"},          // needs -eval
		{"-eval-dialect", "hcrl"},       // needs -eval
		{"-eval", fixture, "-train"},    // two modes
		{"-eval", fixture, "extra.log"}, // no positional files
		{"-eval", filepath.Join("no", "such", "dir")},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestListDialectsTranscript(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list-dialects"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hcrl", "survival", "otids"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list-dialects omits %q:\n%s", name, out.String())
		}
	}
}
