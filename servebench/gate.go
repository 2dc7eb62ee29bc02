package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"canids/internal/adapt"
	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/gateway"
	"canids/internal/model"
	"canids/internal/response"
	"canids/internal/server"
	"canids/internal/store"
)

// servedModel decodes the workload's snapshot into the model the
// server builds from it (epoch 1, the initial build).
func (e *env) servedModel() (*model.Model, error) {
	snap, err := store.Decode(bytes.NewReader(e.models.snapshot(e.w)))
	if err != nil {
		return nil, err
	}
	return snap.BuildModel(1)
}

// reference is the offline oracle for one run: every bus's accepted
// records through a dedicated classic engine with the workload's
// policy and adaptation, exactly as the server assembles one per bus.
// Where the workload arms an ingest quota, each engine runs under a
// one-bus supervisor with the same quota, so it sheds what the server
// sheds.
type reference struct {
	counts map[string]busCounts
	alerts map[string][]detect.Alert
	wall   time.Duration
	frames int
	allocs uint64
}

// runReference replays the requests a serving pass accepted (ok[j])
// per bus through dedicated engines of the given shard count (0 = the
// engine default).
func (e *env) runReference(shards int, ok []bool) (*reference, error) {
	m, err := e.servedModel()
	if err != nil {
		return nil, err
	}
	served := e.w.config(nil, "", e.traffic)
	adaptOpts := served.Adapt
	ref := &reference{counts: make(map[string]busCounts), alerts: make(map[string][]detect.Alert)}
	settle()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mallocs0 := mem.Mallocs
	start := time.Now()
	for _, ch := range e.traffic.channels {
		cfg := engine.Config{Shards: shards}
		if gp := m.Gateway(); gp != nil {
			gw := gateway.NewWithPolicy(gp)
			cfg.Gateway = gw
			if rc := m.Response(); rc != nil {
				if cfg.Responder, err = response.New(gw, *rc); err != nil {
					return nil, err
				}
			}
		}
		var ad *adapt.Adapter
		if adaptOpts != nil {
			ad, err = adapt.New(adapt.Config{
				Base: m, Every: adaptOpts.Every, Ring: adaptOpts.Ring, MinWindows: adaptOpts.MinWindows,
				RateSlack: adaptOpts.RateSlack, TemplateEWMA: adaptOpts.TemplateEWMA,
				FreezeTemplate: adaptOpts.FreezeTemplate, LearnBudgets: m.Gateway() != nil,
			})
			if err != nil {
				return nil, err
			}
			cfg.Adapt = ad
		}
		eng, err := engine.NewFromModel(cfg, m)
		if err != nil {
			return nil, err
		}
		var alerts []detect.Alert
		sink := func(a detect.Alert) { alerts = append(alerts, a) }
		src := newRecordSource(e.traffic, ch, len(ok), ok)
		var st engine.Stats
		if served.QuotaFrames > 0 {
			st, err = quotaRun(eng, ch, served, src, sink)
		} else {
			st, err = eng.Run(context.Background(), src, sink)
		}
		if err != nil {
			return nil, fmt.Errorf("reference bus %s: %w", ch, err)
		}
		c := busCounts{Alerts: st.Alerts, Dropped: st.Dropped, Shed: st.Shed}
		if ad != nil {
			c.Promotions = ad.Status().Promotions
		}
		ref.counts[ch] = c
		ref.alerts[ch] = alerts
		ref.frames += int(st.Frames)
	}
	ref.wall = time.Since(start)
	runtime.ReadMemStats(&mem)
	ref.allocs = mem.Mallocs - mallocs0
	return ref, nil
}

// quotaRun runs one bus's engine under a supervisor armed with the
// served ingest quota.
func quotaRun(eng *engine.Engine, channel string, cfg server.Config, src engine.Source,
	sink func(detect.Alert)) (engine.Stats, error) {
	sup, err := engine.NewSupervisor(engine.SupervisorConfig{
		NewEngine:   func(string) (*engine.Engine, error) { return eng, nil },
		MaxRestarts: -1,
		QuotaFrames: cfg.QuotaFrames, QuotaWindow: cfg.QuotaWindow,
	})
	if err != nil {
		return engine.Stats{}, err
	}
	stats, err := sup.Run(context.Background(), src, func(_ string, a detect.Alert) { sink(a) })
	if err != nil {
		return engine.Stats{}, err
	}
	st := stats[channel]
	if st.Lost != 0 {
		return st, fmt.Errorf("engine lost %d records", st.Lost)
	}
	return st, nil
}

// servedCounts reads the drained server's per-bus outcome.
func servedCounts(srv *server.Server) map[string]busCounts {
	_, buses := srv.Stats()
	status := srv.AdaptStatus()
	out := make(map[string]busCounts, len(buses))
	for ch, st := range buses {
		out[ch] = busCounts{Alerts: st.Alerts, Dropped: st.Dropped, Promotions: status[ch].Promotions, Shed: st.Shed}
	}
	return out
}

// lossyBuses names the buses that lost records to an engine crash:
// their detection counts cannot match the reference, and their loss
// counts in delivered_frac instead.
func lossyBuses(srv *server.Server) map[string]bool {
	_, buses := srv.Stats()
	out := map[string]bool{}
	for ch, st := range buses {
		if st.Lost > 0 {
			out[ch] = true
		}
	}
	return out
}

// compareCounts is the detection half of the correctness gate: every
// bus's served alert, drop, shed and promotion counts equal the
// reference's. Buses in skip must be present but are not compared.
func compareCounts(served, ref map[string]busCounts, skip map[string]bool) error {
	names := make([]string, 0, len(ref))
	for ch := range ref {
		names = append(names, ch)
	}
	sort.Strings(names)
	if len(served) != len(ref) {
		return fmt.Errorf("served %d buses, reference has %d", len(served), len(ref))
	}
	for _, ch := range names {
		got, ok := served[ch]
		if !ok {
			return fmt.Errorf("bus %s: not served", ch)
		}
		if want := ref[ch]; got != want && !skip[ch] {
			return fmt.Errorf("bus %s: served %+v, reference %+v", ch, got, want)
		}
	}
	return nil
}

// acceptedPerBus counts the records of the accepted requests (ok[j])
// per bus.
func (e *env) acceptedPerBus(ok []bool) map[string]uint64 {
	out := make(map[string]uint64, len(e.traffic.channels))
	for j, accepted := range ok {
		if !accepted {
			continue
		}
		b, _ := e.traffic.request(j)
		for ch, recs := range b.byChannel {
			out[ch] += uint64(len(recs))
		}
	}
	return out
}

// gateError is a correctness-gate failure: the run's outputs are
// wrong, as opposed to the benchmark failing to run.
type gateError struct{ err error }

func (g *gateError) Error() string { return "correctness gate: " + g.err.Error() }
func (g *gateError) Unwrap() error { return g.err }

// gate checks a drained serving pass: the frame accounting, and the
// per-bus counts against the offline reference over the same accepted
// requests (which it returns for the ledger).
func (e *env) gate(s *served) (*reference, error) {
	_, buses := s.srv.Stats()
	if err := accounting(e.acceptedPerBus(s.ok), buses, s.srv.Health()); err != nil {
		return nil, &gateError{err}
	}
	ref, err := e.runReference(0, s.ok)
	if err != nil {
		return nil, err
	}
	if err := compareCounts(servedCounts(s.srv), ref.counts, lossyBuses(s.srv)); err != nil {
		return nil, &gateError{err}
	}
	return ref, nil
}

// replayMatches re-runs a recorded serving pass through
// Server.ReplayCapture and requires the replayed alert journal to
// equal the recorded one byte for byte.
func replayMatches(recordDir string) error {
	m, err := server.LoadManifest(recordDir)
	if err != nil {
		return err
	}
	snap, err := m.LoadSnapshot(recordDir)
	if err != nil {
		return err
	}
	replayed := filepath.Join(recordDir, "replay")
	srv, err := server.New(server.Config{
		Snapshot: snap, Shards: m.Shards, Buffer: m.Buffer, Batch: m.Batch, Adapt: m.Adapt,
		JournalDir: replayed,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(context.Background()); err != nil {
		return err
	}
	_, replayErr := srv.ReplayCapture(recordDir)
	if err := srv.Drain(); err != nil {
		return err
	}
	if replayErr != nil {
		return replayErr
	}
	return sameFiles(m.JournalDir(recordDir), replayed)
}

// sameFiles requires two directories to hold the same file names with
// the same bytes.
func sameFiles(want, got string) error {
	a, err := os.ReadDir(want)
	if err != nil {
		return err
	}
	b, err := os.ReadDir(got)
	if err != nil {
		return err
	}
	if len(a) != len(b) {
		return fmt.Errorf("%s holds %d files, %s holds %d", want, len(a), got, len(b))
	}
	for i := range a {
		if a[i].Name() != b[i].Name() {
			return fmt.Errorf("file %s vs %s", a[i].Name(), b[i].Name())
		}
		x, err := os.ReadFile(filepath.Join(want, a[i].Name()))
		if err != nil {
			return err
		}
		y, err := os.ReadFile(filepath.Join(got, b[i].Name()))
		if err != nil {
			return err
		}
		if !bytes.Equal(x, y) {
			return fmt.Errorf("journal %s differs: %d recorded bytes, %d replayed", a[i].Name(), len(x), len(y))
		}
	}
	return nil
}
