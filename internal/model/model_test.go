package model_test

import (
	"reflect"
	"strings"
	"testing"

	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/gateway"
	"canids/internal/model"
	"canids/internal/response"
)

// testTemplate builds a small valid template without the simulator.
func testTemplate(width int) core.Template {
	t := core.Template{Width: width, Windows: 3}
	for i := 0; i < width; i++ {
		t.MeanH = append(t.MeanH, 0.5)
		t.MinH = append(t.MinH, 0.4)
		t.MaxH = append(t.MaxH, 0.6)
		t.MeanP = append(t.MeanP, 0.25)
	}
	return t
}

func fullSpec(t *testing.T) model.Spec {
	t.Helper()
	cfg := core.DefaultConfig()
	pool := []can.ID{0x0B5, 0x171, 0x3B3}
	gp, err := gateway.NewPolicy(gateway.Config{
		Legal:      pool,
		RateWindow: cfg.Window,
		Budgets:    map[can.ID]int{0x0B5: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := response.DefaultConfig(nil) // pool/width filled by New
	return model.Spec{
		Epoch:    1,
		Core:     cfg,
		Template: testTemplate(cfg.Width),
		Pool:     pool,
		Gateway:  gp,
		Response: &resp,
	}
}

func TestModelNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*model.Spec)
		want   string
	}{
		{"bad core", func(s *model.Spec) { s.Core.Window = 0 }, "window"},
		{"bad template", func(s *model.Spec) { s.Template.MeanH = s.Template.MeanH[:1] }, "model:"},
		{"width mismatch", func(s *model.Spec) { s.Core.Width = 32 }, "width"},
		{"bad response", func(s *model.Spec) { s.Response = &response.Config{MinScore: -1} }, "MinScore"},
		{"response without gateway", func(s *model.Spec) { s.Gateway = nil }, "needs a gateway"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := fullSpec(t)
			tc.mutate(&spec)
			if _, err := model.New(spec); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New() error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestModelFillsResponseDefaults(t *testing.T) {
	spec := fullSpec(t)
	m, err := model.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Response()
	if r == nil {
		t.Fatal("response policy dropped")
	}
	if !reflect.DeepEqual(r.Pool, m.Pool()) {
		t.Errorf("response pool %v not filled from the model pool %v", r.Pool, m.Pool())
	}
	if r.Width != spec.Core.Width {
		t.Errorf("response width %d not filled from core width %d", r.Width, spec.Core.Width)
	}
}

func TestModelPoolIsolation(t *testing.T) {
	spec := fullSpec(t)
	m, err := model.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Pool[0] = 0x7FF
	if m.Pool()[0] == 0x7FF {
		t.Error("model shares the caller's pool slice")
	}
	m.Pool()[1] = 0x7FE
	if m.Pool()[1] == 0x7FE {
		t.Error("Pool() hands out the internal slice")
	}
}

func TestModelDerivations(t *testing.T) {
	m, err := model.New(fullSpec(t))
	if err != nil {
		t.Fatal(err)
	}

	// WithEpoch changes only the epoch; everything else is shared.
	e2 := m.WithEpoch(2)
	if e2.Epoch() != 2 || m.Epoch() != 1 {
		t.Fatalf("WithEpoch: got %d (base %d), want 2 (base 1)", e2.Epoch(), m.Epoch())
	}
	if e2.Gateway() != m.Gateway() || e2.Response() != m.Response() {
		t.Error("WithEpoch copied policies instead of sharing them")
	}

	// WithTemplate keeps the epoch (learning refines a generation) and
	// validates the replacement.
	tmpl := testTemplate(m.Core().Width)
	tmpl.MeanH[0] = 0.55
	adapted, err := m.WithTemplate(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if adapted.Epoch() != m.Epoch() {
		t.Errorf("WithTemplate minted epoch %d, want base %d", adapted.Epoch(), m.Epoch())
	}
	if adapted.Template().MeanH[0] != 0.55 || m.Template().MeanH[0] == 0.55 {
		t.Error("WithTemplate did not isolate the template swap")
	}
	if _, err := m.WithTemplate(testTemplate(m.Core().Width + 1)); err == nil {
		t.Error("WithTemplate accepted a width-mismatched template")
	}

	// WithGatewayBudgets rewrites only the budget table.
	promoted, err := m.WithGatewayBudgets(map[can.ID]int{0x171: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := promoted.Gateway().Budgets(); got[0x171] != 5 || len(got) != 1 {
		t.Errorf("promoted budgets = %v, want {0x171: 5}", got)
	}
	if got := m.Gateway().Budgets(); got[0x0B5] != 10 {
		t.Errorf("base budgets mutated: %v", got)
	}
	if promoted.Gateway().RateWindow() != m.Gateway().RateWindow() {
		t.Error("WithGatewayBudgets dropped the rate window")
	}

	// No gateway, no budget promotion.
	bare, err := model.New(model.Spec{Epoch: 1, Core: m.Core(), Template: m.Template()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.WithGatewayBudgets(map[can.ID]int{1: 1}); err == nil {
		t.Error("WithGatewayBudgets worked without a gateway policy")
	}
}

// TestModelCompatible pins the one structural rule every swap path
// applies: template, budgets, whitelist and response policy may change;
// core config, policy presence and the gateway rate window may not.
func TestModelCompatible(t *testing.T) {
	cur, err := model.New(fullSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*testing.T, *model.Spec)
		want   string // "" = compatible
	}{
		{"same", func(*testing.T, *model.Spec) {}, ""},
		{"new template", func(_ *testing.T, s *model.Spec) { s.Template.MeanH[0] = 0.45 }, ""},
		{"new budgets and whitelist", func(t *testing.T, s *model.Spec) {
			gp, err := gateway.NewPolicy(gateway.Config{RateWindow: s.Core.Window, Budgets: map[can.ID]int{0x171: 3}})
			if err != nil {
				t.Fatal(err)
			}
			s.Gateway = gp
		}, ""},
		{"new response policy", func(_ *testing.T, s *model.Spec) { s.Response = &response.Config{BlockTop: 2} }, ""},
		{"core drift", func(_ *testing.T, s *model.Spec) { s.Core.Alpha = 9 }, "core config"},
		{"no response", func(_ *testing.T, s *model.Spec) { s.Response = nil }, "presence"},
		{"no policy", func(_ *testing.T, s *model.Spec) { s.Gateway, s.Response = nil, nil }, "presence"},
		{"rate window", func(t *testing.T, s *model.Spec) {
			gp, err := gateway.NewPolicy(gateway.Config{RateWindow: 2 * s.Core.Window})
			if err != nil {
				t.Fatal(err)
			}
			s.Gateway = gp
		}, "rate window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := fullSpec(t)
			tc.mutate(t, &spec)
			next, err := model.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			err = model.Compatible(cur, next)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Compatible() = %v, want nil", err)
				}
				if err := model.Compatible(next, cur); err != nil {
					t.Fatalf("Compatible is not symmetric: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Compatible() = %v, want mention of %q", err, tc.want)
			}
		})
	}
	if err := model.Compatible(cur, nil); err == nil {
		t.Error("Compatible accepted a nil model")
	}
}
