// Package model defines the single immutable serving model every layer
// of the pipeline shares read-only: the detector's core configuration,
// the trained bit-entropy template, the legal identifier pool, the
// gateway policy (whitelist + rate budgets) and the response policy,
// plus an epoch counter that names the operator-visible model
// generation.
//
// A Model is a value, not a registry: it is fully built before anyone
// sees it and never mutated afterwards. Swapping models — a hot
// reload, an adaptation promotion, a checkpoint restore, the initial
// build — means constructing a fresh Model and installing the pointer
// at the engine's next window boundary; readers on the hot path
// never take a lock. Because the value is immutable, any number of
// engines (or multiplexed vehicle lanes) can share one Model: the
// per-vehicle marginal state shrinks to the detector counters and the
// quarantine list, which is what makes fleet-scale multiplexing
// affordable.
//
// The epoch is assigned by the producer that owns the generation
// counter (the serving layer): an operator reload bumps it, and every
// engine serving the fleet converges on the same number. Derived
// models — an adaptation promotion refining the template or budgets —
// keep their base model's epoch, so the epoch tracks operator intent,
// not background learning.
package model

import (
	"errors"
	"fmt"

	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/gateway"
	"canids/internal/response"
)

// Spec is the mutable builder handed to New; the resulting Model owns
// validated copies of everything that needs isolation.
type Spec struct {
	// Epoch is the model generation (see the package comment).
	Epoch uint64
	// Core is the detector configuration the template was trained
	// under.
	Core core.Config
	// Template is the trained bit-entropy template.
	Template core.Template
	// Pool is the legal identifier pool inference searches.
	Pool []can.ID
	// Gateway is the immutable gateway policy; nil means the model
	// carries no gateway (detection only).
	Gateway *gateway.Policy
	// Response is the response policy; nil means no responder. A zero
	// Pool/Width inside it is filled from the model's own pool and the
	// core width before normalization.
	Response *response.Config
}

// Model is one immutable model generation. Construct with New; derive
// variants with the With* methods.
type Model struct {
	epoch    uint64
	core     core.Config
	template core.Template
	pool     []can.ID
	gateway  *gateway.Policy
	response *response.Config
}

// New validates a spec and freezes it into a Model.
func New(spec Spec) (*Model, error) {
	if err := spec.Core.Validate(); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	if err := spec.Template.Validate(); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	if spec.Template.Width != spec.Core.Width {
		return nil, fmt.Errorf("model: template width %d != core width %d", spec.Template.Width, spec.Core.Width)
	}
	m := &Model{
		epoch:    spec.Epoch,
		core:     spec.Core,
		template: spec.Template,
		pool:     append([]can.ID(nil), spec.Pool...),
		gateway:  spec.Gateway,
	}
	if spec.Response != nil {
		cfg := *spec.Response
		if len(cfg.Pool) == 0 {
			cfg.Pool = m.pool
		}
		if cfg.Width == 0 {
			cfg.Width = spec.Core.Width
		}
		cfg, err := cfg.Normalize()
		if err != nil {
			return nil, fmt.Errorf("model: %w", err)
		}
		m.response = &cfg
	}
	return m, nil
}

// Epoch returns the model generation.
func (m *Model) Epoch() uint64 { return m.epoch }

// Core returns the detector configuration.
func (m *Model) Core() core.Config { return m.core }

// Template returns the trained template. The slice headers are shared
// (templates are never mutated in place); callers that need isolation
// must copy.
func (m *Model) Template() core.Template { return m.template }

// Pool returns a copy of the legal identifier pool.
func (m *Model) Pool() []can.ID { return append([]can.ID(nil), m.pool...) }

// Gateway returns the immutable gateway policy, or nil when the model
// carries none.
func (m *Model) Gateway() *gateway.Policy { return m.gateway }

// Response returns the normalized response policy, or nil when the
// model carries none. The pointed-to value is immutable by contract.
func (m *Model) Response() *response.Config { return m.response }

// WithEpoch derives a model that differs only in its epoch.
func (m *Model) WithEpoch(epoch uint64) *Model {
	next := *m
	next.epoch = epoch
	return &next
}

// WithTemplate derives a model with the template replaced — the
// adaptation promotion path. The epoch is preserved: learning refines
// a generation, it does not mint one.
func (m *Model) WithTemplate(t core.Template) (*Model, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	if t.Width != m.core.Width {
		return nil, fmt.Errorf("model: template width %d != core width %d", t.Width, m.core.Width)
	}
	next := *m
	next.template = t
	return &next, nil
}

// WithGatewayBudgets derives a model whose gateway policy carries the
// given budget table — the budget-learning promotion path. The model
// must carry a gateway policy.
func (m *Model) WithGatewayBudgets(budgets map[can.ID]int) (*Model, error) {
	if m.gateway == nil {
		return nil, errors.New("model: no gateway policy to set budgets on")
	}
	gp, err := m.gateway.WithBudgets(budgets)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	next := *m
	next.gateway = gp
	return &next, nil
}
