// Package fault is the deterministic fault-injection harness behind the
// chaos suites: a registry of armed failure rules that production code
// consults at named seams ("points"). A seam is one call —
// Injector.Hit(point, scope) — that is a nil-check when no injector is
// installed and deterministic when one is: rules fire on exact hit
// counts ("panic at frame 500"), never on timers or randomness, so a
// chaos run replays bit-for-bit like every other run in this
// repository.
//
// The engine exposes the per-record seam (fault.EngineFrame, scoped by
// bus) and the swap-install seam (fault.EngineSwap); the serving layer
// exposes the checkpoint-write seam (fault.CheckpointSave). Source
// wraps any record source with a fault.SourceNext seam, and Reader
// turns any upload body into a slow or truncated client. `canids -serve
// -faults <spec>` arms an injector from the command line for scripted
// chaos drills (ci.sh's chaos leg).
//
// Spec grammar, entries separated by ';':
//
//	point[scope]:kind@N[xM]
//
//	engine.frame[ms-can]:panic@500      panic on bus ms-can's 500th record
//	checkpoint.save:error@1x2           fail the first two checkpoint writes
//	engine.frame:stall=50ms@100x0       stall 50ms on every record from the 100th on
//
// N is the 1-based hit the rule first fires on; M is how many
// consecutive hits it fires for (default 1, 0 = forever). The scope
// filter is optional; an unscoped rule matches every scope.
package fault

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"canids/internal/trace"
)

// Point names one injection seam. The production call sites below are
// the complete set; Parse rejects unknown points.
type Point string

const (
	// EngineFrame fires once per record in an engine lane, scoped by
	// the engine's Config.FaultScope (the serving layer sets it to the
	// bus channel; fleet lanes use the vehicle channel).
	EngineFrame Point = "engine.frame"
	// EngineSwap fires when a lane installs a model at a window
	// boundary — the only way to reach the install-failure path, since
	// validation makes a real rejection unreachable.
	EngineSwap Point = "engine.swap"
	// CheckpointSave fires before each per-bus checkpoint write, scoped
	// by bus.
	CheckpointSave Point = "checkpoint.save"
	// SourceNext fires per record in a fault.Source wrapper.
	SourceNext Point = "source.next"
)

var points = map[Point]bool{EngineFrame: true, EngineSwap: true, CheckpointSave: true, SourceNext: true}

// Kind is what a firing rule does to the caller.
type Kind int

const (
	// KindPanic panics with a *Panic value.
	KindPanic Kind = iota
	// KindError returns a *Error (errors.Is ErrInjected).
	KindError
	// KindStall sleeps the rule's duration, interruptible by Close, then
	// lets the call proceed.
	KindStall
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindError:
		return "error"
	case KindStall:
		return "stall"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ErrInjected is the sentinel every injected error wraps.
var ErrInjected = errors.New("fault: injected")

// Error is an injected failure returned from a seam.
type Error struct {
	Point Point
	Scope string
}

func (e *Error) Error() string {
	if e.Scope != "" {
		return fmt.Sprintf("fault: injected error at %s[%s]", e.Point, e.Scope)
	}
	return fmt.Sprintf("fault: injected error at %s", e.Point)
}

// Unwrap makes errors.Is(err, ErrInjected) hold.
func (e *Error) Unwrap() error { return ErrInjected }

// Panic is the value an injected panic carries.
type Panic struct {
	Point Point
	Scope string
}

func (p *Panic) String() string {
	if p.Scope != "" {
		return fmt.Sprintf("fault: injected panic at %s[%s]", p.Point, p.Scope)
	}
	return fmt.Sprintf("fault: injected panic at %s", p.Point)
}

// rule is one armed failure: fire on matching hits (after, after+times]
// (times 0 = forever), counted over this rule's own scope matches.
type rule struct {
	point Point
	scope string
	kind  Kind
	stall time.Duration
	after uint64
	times uint64
	count uint64
}

func (r *rule) spec() string {
	var sb strings.Builder
	sb.WriteString(string(r.point))
	if r.scope != "" {
		fmt.Fprintf(&sb, "[%s]", r.scope)
	}
	sb.WriteByte(':')
	if r.kind == KindStall {
		fmt.Fprintf(&sb, "stall=%v", r.stall)
	} else {
		sb.WriteString(r.kind.String())
	}
	fmt.Fprintf(&sb, "@%d", r.after+1)
	if r.times != 1 {
		fmt.Fprintf(&sb, "x%d", r.times)
	}
	return sb.String()
}

// Injector is a set of armed rules. Safe for concurrent use; the zero
// value is not usable — construct with New or Parse. A nil *Injector is
// a valid no-op receiver for Hit, so call sites need no guard of their
// own (hot paths still cache the nil check).
type Injector struct {
	mu    sync.Mutex
	rules []*rule
	hits  map[Point]uint64
	done  chan struct{}
	once  sync.Once
}

// New returns an injector with no rules armed.
func New() *Injector {
	return &Injector{hits: make(map[Point]uint64), done: make(chan struct{})}
}

// Parse builds an injector from a spec string (see the package
// comment). An empty spec returns an empty injector.
func Parse(spec string) (*Injector, error) {
	in := New()
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		r, err := parseRule(entry)
		if err != nil {
			return nil, fmt.Errorf("fault: bad rule %q: %w", entry, err)
		}
		in.rules = append(in.rules, r)
	}
	return in, nil
}

func parseRule(entry string) (*rule, error) {
	head, tail, ok := strings.Cut(entry, ":")
	if !ok {
		return nil, errors.New("want point[scope]:kind@N")
	}
	r := &rule{times: 1}
	if i := strings.IndexByte(head, '['); i >= 0 {
		if !strings.HasSuffix(head, "]") {
			return nil, errors.New("unterminated [scope]")
		}
		r.scope = head[i+1 : len(head)-1]
		head = head[:i]
	}
	r.point = Point(head)
	if !points[r.point] {
		return nil, fmt.Errorf("unknown point %q", head)
	}
	kindStr, at, ok := strings.Cut(tail, "@")
	if !ok {
		return nil, errors.New("missing @N hit count")
	}
	switch {
	case kindStr == "panic":
		r.kind = KindPanic
	case kindStr == "error":
		r.kind = KindError
	case strings.HasPrefix(kindStr, "stall="):
		d, err := time.ParseDuration(strings.TrimPrefix(kindStr, "stall="))
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad stall duration %q", kindStr)
		}
		r.kind, r.stall = KindStall, d
	default:
		return nil, fmt.Errorf("unknown kind %q (want panic, error or stall=<dur>)", kindStr)
	}
	nStr, timesStr, hasTimes := strings.Cut(at, "x")
	n, err := strconv.ParseUint(nStr, 10, 64)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("bad hit count %q (want >= 1)", nStr)
	}
	r.after = n - 1
	if hasTimes {
		if r.times, err = strconv.ParseUint(timesStr, 10, 64); err != nil {
			return nil, fmt.Errorf("bad repeat count %q", timesStr)
		}
	}
	return r, nil
}

// arm appends one rule; n is the 1-based hit the rule first fires on,
// times how many consecutive matching hits it fires for (0 = forever).
func (in *Injector) arm(r *rule, n, times int) {
	if n < 1 {
		n = 1
	}
	r.after = uint64(n - 1)
	r.times = uint64(times)
	if times < 0 {
		r.times = 1
	}
	in.mu.Lock()
	in.rules = append(in.rules, r)
	in.mu.Unlock()
}

// ArmPanic arms a panic at the n-th matching hit, for times hits
// (0 = forever). Counting starts at the arm, not at process start.
func (in *Injector) ArmPanic(p Point, scope string, n, times int) {
	in.arm(&rule{point: p, scope: scope, kind: KindPanic}, n, times)
}

// ArmError arms an injected error like ArmPanic.
func (in *Injector) ArmError(p Point, scope string, n, times int) {
	in.arm(&rule{point: p, scope: scope, kind: KindError}, n, times)
}

// ArmStall arms a stall of duration d like ArmPanic.
func (in *Injector) ArmStall(p Point, scope string, n, times int, d time.Duration) {
	in.arm(&rule{point: p, scope: scope, kind: KindStall, stall: d}, n, times)
}

// Hit consults the seam: a nil injector (or no matching armed rule)
// returns nil; a firing error rule returns its *Error; a firing panic
// rule panics with a *Panic; a firing stall rule sleeps, then falls
// through to any further rule. Rules are evaluated in arm order.
func (in *Injector) Hit(p Point, scope string) error {
	if in == nil {
		return nil
	}
	var stall time.Duration
	var fire *rule
	in.mu.Lock()
	in.hits[p]++
	for _, r := range in.rules {
		if r.point != p || (r.scope != "" && r.scope != scope) {
			continue
		}
		r.count++
		if r.count <= r.after || (r.times != 0 && r.count > r.after+r.times) {
			continue
		}
		if r.kind == KindStall {
			stall += r.stall
			continue
		}
		if fire == nil {
			fire = r
		}
	}
	in.mu.Unlock()
	if stall > 0 {
		t := time.NewTimer(stall)
		defer t.Stop()
		select {
		case <-t.C:
		case <-in.done:
		}
	}
	if fire == nil {
		return nil
	}
	if fire.kind == KindPanic {
		panic(&Panic{Point: p, Scope: scope})
	}
	return &Error{Point: p, Scope: scope}
}

// Hits returns how many times the seam has been consulted (all scopes).
func (in *Injector) Hits(p Point) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[p]
}

// Close releases every in-flight and future stall. Idempotent.
func (in *Injector) Close() {
	if in == nil {
		return
	}
	in.once.Do(func() { close(in.done) })
}

// String renders the armed rules back in spec form.
func (in *Injector) String() string {
	if in == nil {
		return ""
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	specs := make([]string, len(in.rules))
	for i, r := range in.rules {
		specs[i] = r.spec()
	}
	return strings.Join(specs, ";")
}

// Source wraps a record source with the SourceNext seam, so a chaos
// run can make any stream fail (or stall) at an exact record.
type Source struct {
	Src interface {
		Next() (trace.Record, error)
	}
	Inj   *Injector
	Scope string
}

// Next implements the engine's Source contract.
func (s *Source) Next() (trace.Record, error) {
	if err := s.Inj.Hit(SourceNext, s.Scope); err != nil {
		return trace.Record{}, err
	}
	return s.Src.Next()
}

// Reader misbehaves like a faulty upload client: Delay sleeps before
// every Read (a slow-loris body), and TruncateAfter ends the stream
// with Err after that many bytes (a client dying mid-body). Zero
// values are inert; Err defaults to io.ErrUnexpectedEOF.
type Reader struct {
	R             io.Reader
	Delay         time.Duration
	TruncateAfter int64
	Err           error

	read      int64
	truncated bool
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	if r.TruncateAfter > 0 {
		if r.truncated {
			return 0, r.truncErr()
		}
		if rem := r.TruncateAfter - r.read; int64(len(p)) > rem {
			p = p[:rem]
		}
	}
	n, err := r.R.Read(p)
	r.read += int64(n)
	if r.TruncateAfter > 0 && r.read >= r.TruncateAfter {
		r.truncated = true
		if err == nil || err == io.EOF {
			err = r.truncErr()
		}
	}
	return n, err
}

func (r *Reader) truncErr() error {
	if r.Err != nil {
		return r.Err
	}
	return io.ErrUnexpectedEOF
}
