// Package response closes the loop the paper's introduction promises:
// "the malicious messages containing those IDs would be discarded or
// blocked". A Responder consumes the bit-entropy detector's alerts, runs
// malicious-ID inference, and pushes the top candidates onto a gateway
// blocklist for a configurable quarantine period.
//
// HandleAlert blocks on the Responder's gateway, so it runs on the
// goroutine that classifies with that gateway: the streaming engine
// hands it alerts from its lane's goroutine. The policy is an immutable
// snapshot behind an atomic pointer — HandleAlert reads it without
// taking a lock. A normalized policy carries the inference index of its
// pool (infer.Index), built once and shared by every responder serving
// the policy, and each responder ranks into scratch of its own, so a
// warm HandleAlert allocates nothing. A Responder keeps no history: the
// returned Action is the record of what it did (engine.Config.OnAction
// hands each one to the caller in stream order).
package response

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"canids/internal/can"
	"canids/internal/detect"
	"canids/internal/gateway"
	"canids/internal/infer"
)

// Errors returned by New.
var (
	ErrNoGateway = errors.New("response: gateway is required")
	ErrNoPool    = errors.New("response: legal ID pool is required")
)

// Config parameterizes a Responder.
type Config struct {
	// Pool is the legal identifier set searched by inference.
	Pool []can.ID
	// Width is the identifier width in bits (11 for CAN 2.0A).
	Width int
	// Rank is the inference candidate-set size (paper: 10).
	Rank int
	// BlockTop is how many top-ranked candidates to block per alert
	// (default 1 — blocking the whole candidate set would deny service
	// to up to Rank legitimate message streams).
	BlockTop int
	// Quarantine is how long a block lasts from the alert's window end;
	// zero blocks until manually lifted.
	Quarantine time.Duration
	// MinScore ignores alerts below this threshold-normalized score,
	// avoiding knee-jerk blocking on marginal deviations.
	MinScore float64

	// index is Pool indexed for inference at Width, set by Normalize and
	// shared by every copy of the normalized Config. Pool must not be
	// mutated after normalization.
	index *infer.Index
}

// DefaultConfig returns a conservative responder: block the single top
// suspect for 30 seconds per alert.
func DefaultConfig(pool []can.ID) Config {
	return Config{
		Pool:       pool,
		Width:      can.StandardIDBits,
		Rank:       infer.DefaultRank,
		BlockTop:   1,
		Quarantine: 30 * time.Second,
	}
}

// Action records one response taken.
type Action struct {
	// Alert is the triggering alert.
	Alert detect.Alert
	// Blocked are the identifiers quarantined for this alert.
	Blocked []can.ID
	// Until is when the quarantine lapses (zero = manual).
	Until time.Duration
}

// Normalize fills the Config's defaulted fields (Width, Rank, BlockTop)
// and validates the result — the same rules New applies, exposed so a
// policy restored from a snapshot (or queued for a hot swap) can be
// checked before it is installed. It indexes the pool for inference
// unless the Config already carries an index of the same pool and
// width, so re-normalizing a normalized policy (every responder built
// from one model) shares its index.
func (c Config) Normalize() (Config, error) {
	if len(c.Pool) == 0 {
		return c, ErrNoPool
	}
	if c.Width == 0 {
		c.Width = can.StandardIDBits
	}
	if c.Rank <= 0 {
		c.Rank = infer.DefaultRank
	}
	if c.BlockTop <= 0 {
		c.BlockTop = 1
	}
	if c.BlockTop > c.Rank {
		return c, fmt.Errorf("response: BlockTop %d exceeds Rank %d", c.BlockTop, c.Rank)
	}
	if c.MinScore < 0 {
		return c, fmt.Errorf("response: MinScore must be >= 0, got %v", c.MinScore)
	}
	if c.Quarantine < 0 {
		return c, fmt.Errorf("response: Quarantine must be >= 0, got %v", c.Quarantine)
	}
	if c.index == nil || !c.index.Matches(c.Pool, c.Width) {
		ix, err := infer.NewIndex(c.Pool, c.Width)
		if err != nil {
			return c, fmt.Errorf("response: %w", err)
		}
		c.index = ix
	}
	return c, nil
}

// Responder turns alerts into gateway blocks.
type Responder struct {
	gateway *gateway.Gateway

	// cfg is the immutable policy snapshot; HandleAlert loads it
	// lock-free, SetPolicy replaces it wholesale. The struct behind
	// the pointer is never mutated in place.
	cfg atomic.Pointer[Config]

	// scratch is HandleAlert's working memory, allocated on the first
	// alert so an idle responder stays small.
	scratch *alertScratch
}

// alertScratch is one responder's reusable per-alert memory: the
// ranking's, and the Action HandleAlert returns.
type alertScratch struct {
	rank    infer.Scratch
	act     Action
	blocked []can.ID
}

// New creates a responder bound to a gateway.
func New(gw *gateway.Gateway, cfg Config) (*Responder, error) {
	if gw == nil {
		return nil, ErrNoGateway
	}
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	r := &Responder{gateway: gw}
	r.cfg.Store(&cfg)
	return r, nil
}

// Config returns the active (normalized) policy.
func (r *Responder) Config() Config { return *r.cfg.Load() }

// SetPolicy replaces the response policy, e.g. with one restored from a
// snapshot at a hot-reload boundary.
func (r *Responder) SetPolicy(cfg Config) error {
	cfg, err := cfg.Normalize()
	if err != nil {
		return err
	}
	r.cfg.Store(&cfg)
	return nil
}

// HandleAlert infers the malicious identifiers behind an alert and
// blocks the top candidates. It returns the action taken, or nil when
// the alert was below the score floor. The policy read is lock-free.
// The Action and its Blocked slice are the responder's scratch, valid
// until the next HandleAlert: copy what you keep.
func (r *Responder) HandleAlert(a detect.Alert) (*Action, error) {
	cfg := r.cfg.Load()
	if a.Score < cfg.MinScore {
		return nil, nil
	}
	sc := r.scratch
	if sc == nil {
		sc = new(alertScratch)
		r.scratch = sc
	}
	res, err := cfg.index.Rank(&sc.rank, a, cfg.Rank)
	if err != nil {
		return nil, fmt.Errorf("response: %w", err)
	}
	until := time.Duration(0)
	if cfg.Quarantine > 0 {
		// Saturate like detect.WindowEnd: at the top of the timestamp
		// range the sum would wrap negative and the block would be born
		// expired.
		if a.WindowEnd > math.MaxInt64-cfg.Quarantine {
			until = math.MaxInt64
		} else {
			until = a.WindowEnd + cfg.Quarantine
		}
	}
	// Inference can return fewer candidates than BlockTop when the pool
	// is small; block what it found.
	top := res.Candidates
	if len(top) > cfg.BlockTop {
		top = top[:cfg.BlockTop]
	}
	sc.blocked = append(sc.blocked[:0], top...)
	for _, id := range sc.blocked {
		r.gateway.Block(id, until)
	}
	sc.act = Action{Alert: a, Blocked: sc.blocked, Until: until}
	return &sc.act, nil
}
