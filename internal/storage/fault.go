package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/stats"
)

// This file implements deterministic fault and corruption injection as one
// Backend wrapper: a FaultPlan is a declarative list of rules, and
// WithFaults arms a plan in front of any backend — the simulator and the
// durable file store alike. It exists so the buffer pool's error paths
// (failed miss reads, failed dirty-victim write-backs, corrupt pages) can
// be exercised exactly and reproducibly instead of never.
//
// A rule has one of two kinds. A fault rule fails the operation it matches
// before it reaches the inner backend. A corruption rule models media
// damage as *taint*: a write that reached the media may leave its page (or
// a misdirected neighbour) marked corrupt. A read of a tainted page is
// refused with ErrCorrupt without touching the inner backend — exactly
// what a self-verifying store does when a trailer check fails — and the
// taint clears the way real corruption does: a fresh overwrite of the
// slot, a successful RepairPage, or deallocation of the page.

// Op identifies a class of storage operations for fault matching.
type Op uint8

const (
	// OpRead matches Backend.Read.
	OpRead Op = 1 << iota
	// OpWrite matches Backend.Write.
	OpWrite
	// OpAllocate matches Backend.Allocate. It is deliberately outside
	// OpAny: allocation faults (a full device, most usefully injected as
	// storage.ErrNoSpace) must be opted into explicitly so page-transfer
	// storms keep their exact read/write ledgers.
	OpAllocate
)

// OpAny matches every page-transfer storage operation (reads and writes).
const OpAny = OpRead | OpWrite

// ErrInjectedFault is the error a faulted operation returns unless its rule
// carries a custom Err.
var ErrInjectedFault = errors.New("storage: injected fault")

// FaultRule describes one injection rule. The zero value of each field is
// the permissive default, so a rule lists only its constraints:
//
//	FaultRule{Op: OpWrite, Pages: []policy.PageID{7}}      // every write of page 7 fails
//	FaultRule{Op: OpRead, After: 10, Count: 3}             // reads 11..13 fail
//	FaultRule{Probability: 0.01}                           // ~1% of all I/O fails
//	FaultRule{Corrupt: CorruptChecksum, Probability: 0.05} // ~5% of writes rot
type FaultRule struct {
	// Op selects the operation classes a fault rule applies to; zero means
	// OpAny. Corruption rules ignore it: they match writes only.
	Op Op
	// Pages restricts the rule to the listed page ids; empty matches every
	// page.
	Pages []policy.PageID
	// After lets that many matching operations pass before the rule arms.
	After uint64
	// Count bounds how many times the rule fires once armed; zero means
	// unlimited.
	Count uint64
	// Probability, when in (0, 1), fires the rule on each armed matching
	// operation with this probability, drawn from the plan's seeded
	// generator; zero (or anything ≥ 1) fires on every one.
	Probability float64
	// Err is the error a fault rule injects; nil selects ErrInjectedFault.
	// Corruption rules ignore it.
	Err error
	// Corrupt, when non-zero, makes this a corruption rule: it is checked
	// only against writes that reached the inner backend, and a match
	// taints the page with this kind instead of failing the write.
	// CorruptMisdirect taints the neighbouring page (id XOR 1) — the write
	// landed on the wrong slot — instead of the written page itself; a
	// neighbour that is not an allocated page takes no taint.
	Corrupt CorruptKind
	// Unrepairable marks a corruption rule's taint as beyond RepairPage:
	// the backend's redundant copy is gone too (a WAL already truncated).
	// Only a fresh overwrite of the slot clears it.
	Unrepairable bool
}

// faultRule is a FaultRule plus its runtime matching state.
type faultRule struct {
	FaultRule
	pages    map[policy.PageID]struct{} // nil when the rule matches all pages
	seen     uint64                     // matching operations observed so far
	injected uint64                     // times fired so far
}

// FaultPlan is a deterministic injection schedule: rules are consulted in
// declaration order and the first one that fires decides the operation's
// fate. Fault rules are consulted before an operation reaches the inner
// backend, corruption rules only after a write succeeded there, so an
// operation is never charged against both kinds. All randomness flows from
// one seeded generator, so a single-threaded operation sequence is injected
// identically on every run; under concurrency the decision *stream* is
// still the seeded one, but its assignment to operations follows arrival
// order.
//
// A FaultPlan is safe for concurrent use. Arm it with Faulty.SetFaults.
type FaultPlan struct {
	mu    sync.Mutex
	rng   *stats.RNG
	rules []faultRule
}

// NewFaultPlan returns a plan with the given rules, drawing probabilistic
// decisions from a generator seeded with seed.
func NewFaultPlan(seed uint64, rules ...FaultRule) *FaultPlan {
	p := &FaultPlan{rng: stats.NewRNG(seed)}
	for _, r := range rules {
		fr := faultRule{FaultRule: r}
		switch {
		case fr.Corrupt != 0:
			fr.Op = OpWrite
		case fr.Op == 0:
			fr.Op = OpAny
		}
		if fr.Err == nil {
			fr.Err = ErrInjectedFault
		}
		if len(r.Pages) > 0 {
			fr.pages = make(map[policy.PageID]struct{}, len(r.Pages))
			for _, pg := range r.Pages {
				fr.pages[pg] = struct{}{}
			}
		}
		p.rules = append(p.rules, fr)
	}
	return p
}

// fire runs one operation through the plan's rules of one kind — fault
// rules, or corruption rules when corrupt is set — and returns the rule
// that fired, or nil. An operation is charged against every rule of that
// kind in order until one fires. Safe on a nil plan.
func (p *FaultPlan) fire(op Op, page policy.PageID, corrupt bool) *faultRule {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.rules {
		r := &p.rules[i]
		if (r.Corrupt != 0) != corrupt || r.Op&op == 0 {
			continue
		}
		if r.pages != nil {
			if _, ok := r.pages[page]; !ok {
				continue
			}
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.injected >= r.Count {
			continue
		}
		if r.Probability > 0 && r.Probability < 1 && p.rng.Float64() >= r.Probability {
			continue
		}
		r.injected++
		return r
	}
	return nil
}

// FaultCharger is optionally implemented by backends that price faulted
// operations: a failed I/O still cost device time (the arm still moved).
// The simulator implements it so charging a doomed operation runs its
// ServiceModel.Delay hook — tests can park a faulted read exactly like a
// successful one.
type FaultCharger interface {
	ChargeFault(p policy.PageID)
}

// allocChecker is optionally implemented by backends that can tell whether
// a page id is currently allocated; the wrapper asks it before a misdirect
// taints a neighbour, so no taint lands on a page that does not exist.
type allocChecker interface {
	IsAllocated(p policy.PageID) bool
}

// taintState is one page's simulated media damage.
type taintState struct {
	kind         CorruptKind
	unrepairable bool
}

// CorruptStats is the injection wrapper's corruption ledger. Under quiesced
// detection (no read racing a scrub of the same page) it reconciles exactly
// with the pool's integrity counters: Injected == Cleared + Tainted at any
// quiet point, and every Detected read resolves to one pool repair or
// quarantine.
type CorruptStats struct {
	// Injected counts clean→tainted transitions (a page corrupted while
	// already tainted is one injection, not two).
	Injected uint64
	// Detected counts reads refused with ErrCorrupt.
	Detected uint64
	// Cleared counts tainted→clean transitions, by overwrite, repair or
	// deallocation.
	Cleared uint64
	// Tainted is the number of currently tainted pages.
	Tainted int
}

// Faulty is a Backend wrapper that injects deterministic faults and media
// corruption from an armed FaultPlan. Faulted operations and reads of
// tainted pages never reach the inner backend (so its Reads/Writes ledgers
// count only genuine transfers); the wrapper counts faults in
// ReadFaults/WriteFaults and, when the inner backend implements
// FaultCharger, charges it for the wasted device time. It implements
// Repairer: repairing a repairable taint clears it and delegates to the
// inner backend's Repairer when there is one, so a storm over the file
// store still exercises the real WAL-tail scan.
//
// Until a plan is first armed, Read, Write and Allocate cost one atomic
// load on top of the inner call: no lock, no taint lookup.
type Faulty struct {
	inner   Backend
	charger FaultCharger // nil when inner does not price faults
	alloc   allocChecker // nil when inner cannot report allocation
	plan    atomic.Pointer[FaultPlan]
	// armed is set by the first non-nil SetFaults and never cleared:
	// taints outlive disarming, so only a never-armed wrapper may skip
	// the taint map.
	armed atomic.Bool

	readFaults  atomic.Uint64
	writeFaults atomic.Uint64

	mu       sync.Mutex
	taint    map[policy.PageID]taintState
	injected uint64
	detected uint64
	cleared  uint64
}

// WithFaults wraps inner with an injection stage (initially disarmed).
func WithFaults(inner Backend) *Faulty {
	f := &Faulty{inner: inner, taint: make(map[policy.PageID]taintState)}
	f.charger, _ = inner.(FaultCharger)
	f.alloc, _ = inner.(allocChecker)
	return f
}

// SetFaults arms (or, with nil, disarms) an injection plan. It may be
// called at any time, including while operations are in flight; operations
// already past their fault check complete normally. Existing taints
// survive disarming — damage already on the media stays there.
func (f *Faulty) SetFaults(p *FaultPlan) {
	f.plan.Store(p)
	if p != nil {
		f.armed.Store(true)
	}
}

// Inner returns the wrapped backend.
func (f *Faulty) Inner() Backend { return f.inner }

// CorruptStats snapshots the corruption ledger.
func (f *Faulty) CorruptStats() CorruptStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return CorruptStats{
		Injected: f.injected,
		Detected: f.detected,
		Cleared:  f.cleared,
		Tainted:  len(f.taint),
	}
}

// TaintedPages returns the ids of currently tainted pages, in no
// particular order.
func (f *Faulty) TaintedPages() []policy.PageID {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]policy.PageID, 0, len(f.taint))
	for id := range f.taint {
		ids = append(ids, id)
	}
	return ids
}

// Read implements Backend. A faulted read returns its fault; a read of a
// tainted page is refused with ErrCorrupt, the detection a self-verifying
// store would make; anything else passes through.
func (f *Faulty) Read(ctx context.Context, p policy.PageID, buf []byte) error {
	if !f.armed.Load() {
		return f.inner.Read(ctx, p, buf)
	}
	if r := f.plan.Load().fire(OpRead, p, false); r != nil {
		f.readFaults.Add(1)
		if f.charger != nil {
			f.charger.ChargeFault(p)
		}
		return fmt.Errorf("read page %d: %w", p, r.Err)
	}
	f.mu.Lock()
	ts, tainted := f.taint[p]
	if tainted {
		f.detected++
	}
	f.mu.Unlock()
	if tainted {
		return fmt.Errorf("read page %d: %w", p, &ErrCorrupt{Page: p, Kind: ts.kind})
	}
	return f.inner.Read(ctx, p, buf)
}

// Write implements Backend. A faulted write never reaches the media, so it
// neither taints nor clears. A write that succeeded on the inner backend
// either corrupts per the armed plan (tainting the page, or its XOR-1
// neighbour for misdirects) or — like a real overwrite of a damaged slot —
// clears the page's taint.
func (f *Faulty) Write(ctx context.Context, p policy.PageID, buf []byte) error {
	if !f.armed.Load() {
		return f.inner.Write(ctx, p, buf)
	}
	plan := f.plan.Load()
	if r := plan.fire(OpWrite, p, false); r != nil {
		f.writeFaults.Add(1)
		if f.charger != nil {
			f.charger.ChargeFault(p)
		}
		return fmt.Errorf("write page %d: %w", p, r.Err)
	}
	if err := f.inner.Write(ctx, p, buf); err != nil {
		return err
	}
	r := plan.fire(OpWrite, p, true)
	f.mu.Lock()
	defer f.mu.Unlock()
	if r == nil {
		f.untaintLocked(p)
		return nil
	}
	target := p
	if r.Corrupt == CorruptMisdirect {
		target = p ^ 1
		// Checked under f.mu, which Deallocate takes after its inner call,
		// so a page deallocated concurrently cannot keep a taint.
		if f.alloc != nil && !f.alloc.IsAllocated(target) {
			return nil
		}
	}
	if _, already := f.taint[target]; !already {
		f.injected++
	}
	f.taint[target] = taintState{kind: r.Corrupt, unrepairable: r.Unrepairable}
	return nil
}

// untaintLocked clears page p's taint, if any. The caller holds f.mu.
func (f *Faulty) untaintLocked(p policy.PageID) {
	if _, ok := f.taint[p]; ok {
		delete(f.taint, p)
		f.cleared++
	}
}

// RepairPage implements Repairer. A repairable taint clears (the simulated
// damage sat over an intact inner image); an unrepairable one is reported
// back as ErrCorrupt. Either way a clean page delegates to the inner
// backend's Repairer, so real on-media corruption under the wrapper is
// still repaired — and real repair machinery still runs in storms.
func (f *Faulty) RepairPage(ctx context.Context, p policy.PageID) error {
	f.mu.Lock()
	if ts, ok := f.taint[p]; ok {
		if ts.unrepairable {
			f.mu.Unlock()
			return fmt.Errorf("repair page %d: %w", p, &ErrCorrupt{Page: p, Kind: ts.kind})
		}
		f.untaintLocked(p)
	}
	f.mu.Unlock()
	if r, ok := RepairerFor(f.inner); ok {
		return r.RepairPage(ctx, p)
	}
	return nil
}

// Allocate implements Backend. Rules targeting OpAllocate fault it (the
// page id matched is -1: no page exists yet, so Pages-restricted rules
// never fire here); allocation faults are not counted in the read/write
// fault ledgers.
func (f *Faulty) Allocate() (policy.PageID, error) {
	if r := f.plan.Load().fire(OpAllocate, -1, false); r != nil {
		return 0, fmt.Errorf("allocate page: %w", r.Err)
	}
	return f.inner.Allocate()
}

// Deallocate implements Backend, dropping any taint with the page.
func (f *Faulty) Deallocate(p policy.PageID) error {
	err := f.inner.Deallocate(p)
	if f.armed.Load() {
		f.mu.Lock()
		f.untaintLocked(p)
		f.mu.Unlock()
	}
	return err
}

// Flush implements Backend.
func (f *Faulty) Flush(ctx context.Context) error { return f.inner.Flush(ctx) }

// Stats implements Backend, merging the wrapper's fault counters into the
// inner backend's ledger.
func (f *Faulty) Stats() Stats {
	s := f.inner.Stats()
	s.ReadFaults += f.readFaults.Load()
	s.WriteFaults += f.writeFaults.Load()
	return s
}

// StripeOf implements Backend.
func (f *Faulty) StripeOf(p policy.PageID) int { return f.inner.StripeOf(p) }

// NumStripes implements Backend.
func (f *Faulty) NumStripes() int { return f.inner.NumStripes() }

// NumPages implements Backend.
func (f *Faulty) NumPages() int { return f.inner.NumPages() }

// Close implements Backend.
func (f *Faulty) Close() error { return f.inner.Close() }
