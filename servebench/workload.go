package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/engine/scenario"
	"canids/internal/gateway"
	"canids/internal/response"
	"canids/internal/server"
	"canids/internal/store"
	"canids/internal/trace"
	"canids/internal/vehicle"
)

// cycle is how much base traffic each bus or vehicle carries; requests
// replay it cycle after cycle with timestamps advanced.
const cycle = 4 * time.Second

// adaptEvery is adapt-durable's promotion cadence (and warm-up) in
// clean windows: short enough that each clean bus promotes, and
// checkpoints, about 35 times a run.
const adaptEvery = 64

// workload is one traffic mix with its serving configuration.
type workload struct {
	name string
	// clients is the number of closed-loop uploaders.
	clients int
	// format is the wire format of every request body; other is the
	// format the ledger renders the same records in to time the
	// decoder the workload bypasses.
	format, other trace.Format
	// prevent serves a model with gateway and response policy.
	prevent bool
	// reqPerSecond sizes the timed phase: seconds × reqPerSecond
	// requests, a fixed count for a given run length, so every commit
	// serves the same frames.
	reqPerSecond int
	// build renders the workload's request bodies from the catalogue.
	build func(specs []scenario.Spec) (*traffic, error)
	// config is the server configuration for one construction, with its
	// files under dir.
	config func(snap *store.Snapshot, dir string, t *traffic) server.Config
}

var workloads = []*workload{
	{
		// Binary decode, feed slabs, demux and the classic engine carry
		// the run; text decode, fleet lanes, gateway and writers are
		// bypassed.
		name:    "upload-binary",
		clients: 1, format: trace.FormatBinary, other: trace.FormatCandump,
		reqPerSecond: 190,
		build: func(specs []scenario.Spec) (*traffic, error) {
			return mixedTraffic(specs, []string{
				"fusion/idle/clean", "fusion/audio/SI-100", "fusion/lights/MI2-50", "fusion/cruise/FI-500",
			}, 2)
		},
		config: func(snap *store.Snapshot, dir string, t *traffic) server.Config {
			return server.Config{Snapshot: snap}
		},
	},
	{
		// Text decode, fleet lanes, gateway classify and alert-driven
		// blocking carry the run; many small requests feed the latency
		// tail.
		name:    "fleet-candump",
		clients: 2, format: trace.FormatCandump, other: trace.FormatBinary,
		prevent: true, reqPerSecond: 1150,
		build: func(specs []scenario.Spec) (*traffic, error) {
			fusion := profileSpecs(specs, "fusion")
			buses := make([]busSource, 64)
			for v := range buses {
				buses[v] = busSource{
					channel: fmt.Sprintf("veh-%02d", v),
					spec:    vehicleSpec(fusion[v%len(fusion)], v),
				}
			}
			return perBusTraffic(buses, trace.FormatCandump)
		},
		config: func(snap *store.Snapshot, dir string, t *traffic) server.Config {
			return server.Config{
				Snapshot: snap,
				Fleet:    &server.FleetOptions{Engines: 2},
				// Armed at twice the busiest vehicle-second, so the quota
				// runs on every record without shedding any.
				QuotaFrames: 2 * t.maxBody(), QuotaWindow: time.Second,
				JournalDir: filepath.Join(dir, "journal"),
			}
		},
	},
	{
		// The write side — swaps at barriers, snapshot encode and fsync,
		// journal and capture appends — runs beside scoring.
		name:    "adapt-durable",
		clients: 1, format: trace.FormatBinary, other: trace.FormatCandump,
		prevent: true, reqPerSecond: 900,
		build: func(specs []scenario.Spec) (*traffic, error) {
			// Clean buses feed adaptation; the attacked ones alert (the
			// flood every window, the masquerade now and then) or are
			// absorbed by the gateway's rate limits.
			names := []string{
				"fusion/idle/clean", "fusion/audio/clean", "fusion/lights/clean", "fusion/cruise/clean",
				"fusion/cruise/FI-500", "fusion/audio/FI-500", "fusion/idle/MI4-50", "fusion/lights/SI-20",
			}
			var buses []busSource
			for i, name := range names {
				s, ok := scenario.Find(specs, name)
				if !ok {
					return nil, fmt.Errorf("scenario %s missing", name)
				}
				buses = append(buses, busSource{channel: fmt.Sprintf("bus%d", i), spec: s})
			}
			return perBusTraffic(buses, trace.FormatBinary)
		},
		config: func(snap *store.Snapshot, dir string, t *traffic) server.Config {
			record := filepath.Join(dir, "record")
			return server.Config{
				Snapshot:       snap,
				Adapt:          adaptOptions(),
				CheckpointPath: filepath.Join(dir, "ck", "model.snap"),
				RecordDir:      record,
				JournalDir:     filepath.Join(record, "journal"),
			}
		},
	},
}

// adaptOptions are adapt-durable's adaptation knobs, shared by the
// server and its offline reference.
func adaptOptions() *server.AdaptOptions {
	return &server.AdaptOptions{Every: adaptEvery, MinWindows: adaptEvery}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// profileSpecs lists one profile variant's catalogue scenarios.
func profileSpecs(specs []scenario.Spec, profile string) []scenario.Spec {
	var out []scenario.Spec
	for _, s := range specs {
		if s.Profile == profile {
			out = append(out, s)
		}
	}
	return out
}

// mixedTraffic is one vehicle whose buses replay the named scenarios,
// uploaded as mixed-bus binary bodies of period seconds each.
func mixedTraffic(specs []scenario.Spec, names []string, period int) (*traffic, error) {
	perCycle := int(cycle / time.Second / time.Duration(period))
	pieces := make([]trace.Trace, perCycle)
	t := &traffic{streams: 1, perCycle: perCycle, cycle: cycle}
	for i, name := range names {
		s, ok := scenario.Find(specs, name)
		if !ok {
			return nil, fmt.Errorf("scenario %s missing", name)
		}
		b := busSource{channel: fmt.Sprintf("bus%d", i), spec: s}
		base, err := baseCycle(b, cycle)
		if err != nil {
			return nil, err
		}
		for p, piece := range cut(base, cycle, perCycle) {
			pieces[p] = append(pieces[p], piece...)
		}
		t.channels = append(t.channels, b.channel)
	}
	for _, piece := range pieces {
		piece.Sort()
		b, err := newBody("/ingest?format=binary", "", trace.FormatBinary, piece)
		if err != nil {
			return nil, err
		}
		t.bodies = append(t.bodies, b)
	}
	return t, nil
}

// perBusTraffic gives every bus its own stream of one-second bodies,
// posted to /ingest/{channel}.
func perBusTraffic(buses []busSource, format trace.Format) (*traffic, error) {
	perCycle := int(cycle / time.Second)
	t := &traffic{streams: len(buses), perCycle: perCycle, cycle: cycle}
	for _, bs := range buses {
		base, err := baseCycle(bs, cycle)
		if err != nil {
			return nil, err
		}
		route := fmt.Sprintf("/ingest/%s?format=%s", bs.channel, formatName(format))
		for _, piece := range cut(base, cycle, perCycle) {
			b, err := newBody(route, bs.channel, format, piece)
			if err != nil {
				return nil, err
			}
			t.bodies = append(t.bodies, b)
		}
		t.channels = append(t.channels, bs.channel)
	}
	return t, nil
}

// rerender renders the same bodies in another wire format — the input
// the ledger times a bypassed decoder on.
func (t *traffic) rerender(format trace.Format) (*traffic, error) {
	out := *t
	out.bodies = make([]*body, len(t.bodies))
	for i, b := range t.bodies {
		nb, err := newBody(b.route, b.channel, format, b.recs)
		if err != nil {
			return nil, err
		}
		out.bodies[i] = nb
	}
	return &out, nil
}

// maxBody is the largest request's record count.
func (t *traffic) maxBody() int {
	n := 0
	for _, b := range t.bodies {
		n = max(n, b.frames())
	}
	return n
}

func formatName(f trace.Format) string {
	if f == trace.FormatBinary {
		return "binary"
	}
	return "candump"
}

// models are the snapshots every workload serves, trained from the
// catalogue's clean "fusion" scenarios and encoded to bytes so set-up
// times the decode.
type models struct {
	coreCfg core.Config
	pool    []can.ID
	// detect is the detector-only snapshot; prevent adds the learned
	// gateway policy (whitelist, rate budgets) and the response policy.
	detect, prevent []byte
	// gateway and response are the prevention policies, which the
	// ledger also times on workloads that serve without them.
	gateway  *gateway.Policy
	response response.Config
}

func trainModels(specs []scenario.Spec) (*models, error) {
	cfg := core.DefaultConfig()
	windows, err := scenario.TrainingWindows(specs, "fusion", cfg.Window)
	if err != nil {
		return nil, err
	}
	tmpl, err := core.BuildTemplate(windows, cfg.Width, cfg.MinFrames)
	if err != nil {
		return nil, err
	}
	fusion := profileSpecs(specs, "fusion")
	pool := vehicle.NewFusionProfile(fusion[0].ProfileSeed).IDSet()
	gw, err := gateway.New(gateway.Config{Legal: pool, RateWindow: cfg.Window, RateSlack: 2})
	if err != nil {
		return nil, err
	}
	if err := gw.LearnRates(windows); err != nil {
		return nil, err
	}
	resp, err := response.New(gw, response.DefaultConfig(pool))
	if err != nil {
		return nil, err
	}
	m := &models{coreCfg: cfg, pool: pool, gateway: gw.Policy(), response: resp.Config()}
	snap, err := store.New(cfg, tmpl, pool)
	if err != nil {
		return nil, err
	}
	if m.detect, err = encode(snap); err != nil {
		return nil, err
	}
	snap.Gateway = store.CaptureGateway(gw)
	snap.Response = store.CaptureResponse(resp)
	if m.prevent, err = encode(snap); err != nil {
		return nil, err
	}
	return m, nil
}

func encode(s *store.Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := store.Encode(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// snapshot is the encoded model a workload serves.
func (m *models) snapshot(w *workload) []byte {
	if w.prevent {
		return m.prevent
	}
	return m.detect
}
