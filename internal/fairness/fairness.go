// Package fairness makes the Fairness Theorem (Theorem 4.1) executable on
// finite prefixes of infinite restricted chase derivations.
//
// The paper's construction consumes an infinite derivation (I_i)_{i≥0} and
// builds an infinite matrix s_{D,T} of derivations whose diagonal is fair:
// row n+1 copies row n up to a carefully chosen index ℓ (greater than the
// finite deactivation set A of Lemma 4.4), fires one persistently active
// trigger there (Lemma 4.5), and mimics the rest. This package implements
// exactly that row-transformation on lazily generated derivations cut at a
// horizon: Fairize repeatedly locates the earliest trigger that stays
// active to the horizon, computes A empirically, inserts the deactivating
// application after max({n,m} ∪ A), and replays — validating every step
// through chase.Derivation.Apply, which refuses non-active triggers.
//
// For single-head TGDs the construction succeeds (Theorem 4.1); for
// multi-head TGDs it can collapse — Example B.1 — because A is no longer
// finite: the inserted atoms deactivate every later step. Fairize reports
// that collapse as ErrNotFairizable, which is the paper's counterexample
// behaving as stated.
package fairness

import (
	"errors"
	"fmt"
	"sort"

	"airct/internal/chase"
	"airct/internal/etypes"
	"airct/internal/instance"
	"airct/internal/tgds"
)

// Picker chooses the next trigger of a derivation, given the derivation so
// far. Returning false means no choice (the derivation reached a fixpoint
// or the picker abstains). Pickers encode "infinite derivations" lazily.
type Picker func(d *chase.Derivation) (chase.Trigger, bool)

// FirstActive picks the deterministically first active trigger.
func FirstActive(d *chase.Derivation) (chase.Trigger, bool) {
	act := d.Active()
	if len(act) == 0 {
		return chase.Trigger{}, false
	}
	return act[0], true
}

// PreferTGD returns a picker that always fires a trigger of the labeled TGD
// when one is active, falling back to the first active trigger otherwise.
// Preferring one TGD forever is the canonical way to build unfair
// derivations.
func PreferTGD(label string) Picker {
	return func(d *chase.Derivation) (chase.Trigger, bool) {
		act := d.Active()
		if len(act) == 0 {
			return chase.Trigger{}, false
		}
		for _, tr := range act {
			if tr.TGD.Label == label {
				return tr, true
			}
		}
		return act[0], true
	}
}

// OnlyTGD returns a picker that fires only triggers of the labeled TGD and
// abstains when none is active (even if other TGDs are violated).
func OnlyTGD(label string) Picker {
	return func(d *chase.Derivation) (chase.Trigger, bool) {
		for _, tr := range d.Active() {
			if tr.TGD.Label == label {
				return tr, true
			}
		}
		return chase.Trigger{}, false
	}
}

// Materialize runs the picker for up to horizon steps and returns the
// trigger sequence; the bool reports whether the derivation was cut by the
// horizon (true) or ended at a fixpoint/abstention (false).
func Materialize(db *instance.Database, set *tgds.Set, pick Picker, horizon int) ([]chase.Trigger, bool, error) {
	d := chase.NewDerivation(db, set)
	var out []chase.Trigger
	for i := 0; i < horizon; i++ {
		tr, ok := pick(d)
		if !ok {
			return out, false, nil
		}
		if err := d.Apply(tr); err != nil {
			return nil, false, fmt.Errorf("fairness: picker chose a non-applicable trigger at step %d: %w", i, err)
		}
		out = append(out, tr)
	}
	return out, true, nil
}

// Replay validates a trigger sequence as a restricted chase derivation of D
// w.r.t. T, returning the final Derivation.
func Replay(db *instance.Database, set *tgds.Set, triggers []chase.Trigger) (*chase.Derivation, error) {
	d := chase.NewDerivation(db, set)
	for i, tr := range triggers {
		if err := d.Apply(tr); err != nil {
			return nil, fmt.Errorf("fairness: step %d: %w", i, err)
		}
	}
	return d, nil
}

// ErrNotFairizable is returned when the Lemma 4.5 insertion cannot be
// performed within the horizon — for single-head inputs this means the
// horizon is too small; for multi-head inputs it is the Example B.1
// collapse (the deactivation set A is not finite).
var ErrNotFairizable = errors.New("fairness: derivation cannot be fairised within the horizon")

// Report describes a Fairize run.
type Report struct {
	// Rounds is the number of row transformations performed (the n of the
	// matrix s_{D,T} at which the prefix became fair up to FairUpTo).
	Rounds int
	// Inserted lists the deactivating triggers fired by each round, in
	// round order.
	Inserted []chase.Trigger
	// InsertedAt lists the 0-based positions ℓ of each insertion.
	InsertedAt []int
	// FairUpTo is the largest K such that every trigger first active before
	// step K is non-active at the end of the prefix. A finite cut of an
	// infinite derivation always has freshly activated tail triggers, so
	// full fairness is observable only at infinity; FairUpTo growing with
	// the horizon is the finite witness of Theorem 4.1, while FairUpTo
	// pinned at a constant (Example B.1: 0) witnesses its multi-head
	// failure.
	FairUpTo int
	// Blocked lists witnesses whose Lemma 4.5 insertion point fell outside
	// the prefix: for single-head inputs these are tail triggers (m near
	// the horizon); an early blocked witness signals the multi-head
	// collapse, where the deactivation set A reaches the horizon.
	Blocked []chase.Trigger
	// BlockedAt lists the first-activation steps of the blocked witnesses.
	BlockedAt []int
	// DiagonalStable reports whether every round n modified the derivation
	// only at positions > n — the diagonal property of Definition 4.2.
	DiagonalStable bool
	// ExtensibleAfter reports whether the picker can still choose a trigger
	// after the repaired prefix — whether the fairised derivation remains
	// infinite. For single-head inputs Theorem 4.1 guarantees a fair
	// *infinite* derivation exists, so repair preserves extensibility; for
	// Example B.1 every fair derivation is finite and repair collapses the
	// prefix to a fixpoint (ExtensibleAfter = false).
	ExtensibleAfter bool
}

// Fairize implements the Theorem 4.1 construction on a horizon-bounded
// prefix: starting from the derivation the picker generates, it repeatedly
// finds the earliest trigger that becomes active and remains active through
// the end of the prefix, and performs the Lemma 4.5 insertion. Witnesses
// whose insertion point falls outside the prefix are recorded as Blocked
// and repair stops; the final FairUpTo measures how far fairness reaches.
func Fairize(db *instance.Database, set *tgds.Set, pick Picker, horizon int) ([]chase.Trigger, *Report, error) {
	triggers, cut, err := Materialize(db, set, pick, horizon)
	if err != nil {
		return nil, nil, err
	}
	report := &Report{DiagonalStable: true}
	if !cut {
		// Finite derivation: already valid, fairness is vacuous.
		report.FairUpTo = len(triggers) + 1
		return triggers, report, nil
	}
	for round := 0; round <= horizon; round++ {
		witness, m, found, err := earliestPersistentlyActive(db, set, triggers)
		if err != nil {
			return nil, report, err
		}
		if !found {
			break
		}
		// Lemma 4.4 / deactivation set A, computed empirically: the steps
		// whose triggers would be non-active had the witness result been
		// present already.
		A, err := deactivationSet(db, set, triggers, witness)
		if err != nil {
			return nil, report, err
		}
		ell := round
		if m > ell {
			ell = m
		}
		for _, i := range A {
			if i > ell {
				ell = i
			}
		}
		ell++ // strictly greater than all of {n, m} ∪ A
		if ell > len(triggers) {
			// Insertion point outside the prefix: the witness cannot be
			// deactivated within the horizon. For single-head inputs this
			// happens only for tail triggers; an early m here is the
			// Example B.1 collapse.
			report.Blocked = append(report.Blocked, witness)
			report.BlockedAt = append(report.BlockedAt, m)
			break
		}
		next := make([]chase.Trigger, 0, len(triggers)+1)
		next = append(next, triggers[:ell]...)
		next = append(next, witness)
		next = append(next, triggers[ell:]...)
		// Lemma 4.5: the new sequence must still be a restricted chase
		// derivation; Replay verifies every step's activity.
		if _, err := Replay(db, set, next); err != nil {
			return nil, report, fmt.Errorf("%w: Lemma 4.5 replay failed: %v", ErrNotFairizable, err)
		}
		if ell <= round {
			report.DiagonalStable = false
		}
		triggers = next
		report.Rounds++
		report.Inserted = append(report.Inserted, witness)
		report.InsertedAt = append(report.InsertedAt, ell)
	}
	fairUpTo, err := FairHorizon(db, set, triggers)
	if err != nil {
		return nil, report, err
	}
	report.FairUpTo = fairUpTo
	d, err := Replay(db, set, triggers)
	if err != nil {
		return nil, report, err
	}
	_, report.ExtensibleAfter = pick(d)
	return triggers, report, nil
}

// activityLog replays a prefix while recording, per distinct trigger (by
// interned (TGD index, binding) identity — no Key() strings), the first step
// at which it was active. Triggers are stored densely in first-seen order;
// within one step the active list is canonically ordered, so ID order is
// (first step, canonical order) — the deterministic order the callers need.
type activityLog struct {
	trigs     *chase.TriggerInterner
	byID      []chase.Trigger
	firstStep []int
}

// replayRecording replays the prefix on a fresh derivation, recording first
// activations before step 0 and after every step, and returns the final
// derivation and the log.
func replayRecording(db *instance.Database, set *tgds.Set, triggers []chase.Trigger) (*chase.Derivation, *activityLog, error) {
	d := chase.NewDerivation(db, set)
	log := &activityLog{trigs: chase.NewTriggerInterner()}
	record := func(step int) {
		for _, tr := range d.Active() {
			if _, isNew := log.trigs.Intern(tr); isNew {
				log.byID = append(log.byID, tr)
				log.firstStep = append(log.firstStep, step)
			}
		}
	}
	record(0)
	for i, tr := range triggers {
		if err := d.Apply(tr); err != nil {
			return nil, nil, fmt.Errorf("fairness: step %d: %w", i, err)
		}
		record(i + 1)
	}
	return d, log, nil
}

// FairHorizon returns the largest K such that every trigger that first
// became active before step K of the replayed prefix is non-active at its
// end. K = len(triggers)+1 means no starved trigger at all.
func FairHorizon(db *instance.Database, set *tgds.Set, triggers []chase.Trigger) (int, error) {
	d, log, err := replayRecording(db, set, triggers)
	if err != nil {
		return 0, err
	}
	min := len(triggers) + 1
	for id, tr := range log.byID {
		if step := log.firstStep[id]; step < min && chase.IsActive(tr, d.Instance()) {
			min = step
		}
	}
	return min, nil
}

// earliestPersistentlyActive replays the prefix and returns the trigger
// that becomes active earliest and is still active on the final instance,
// together with the step index at which it first became active. Ties on the
// first-activation step resolve to the canonically least trigger — which is
// ID order, since IDs are minted from canonically ordered Active() lists.
func earliestPersistentlyActive(db *instance.Database, set *tgds.Set, triggers []chase.Trigger) (chase.Trigger, int, bool, error) {
	d, log, err := replayRecording(db, set, triggers)
	if err != nil {
		return chase.Trigger{}, 0, false, err
	}
	bestStep := -1
	var best chase.Trigger
	for id, tr := range log.byID {
		step := log.firstStep[id]
		if bestStep != -1 && step >= bestStep {
			continue
		}
		if !chase.IsActive(tr, d.Instance()) {
			continue
		}
		bestStep, best = step, tr
	}
	if bestStep == -1 {
		return chase.Trigger{}, 0, false, nil
	}
	return best, bestStep, true, nil
}

// deactivationSet computes A = {i : firing the witness first would make
// step i's trigger non-active} over the prefix, by checking each step's
// activity on I_i extended with the witness result.
func deactivationSet(db *instance.Database, set *tgds.Set, triggers []chase.Trigger, witness chase.Trigger) ([]int, error) {
	probe := chase.NewNullFactory()
	extra := chase.Result(witness, probe)
	d := chase.NewDerivation(db, set)
	var A []int
	for i, tr := range triggers {
		ext := d.Instance().Clone()
		for _, a := range extra {
			ext.Add(a)
		}
		if !chase.IsActive(tr, ext) {
			A = append(A, i)
		}
		if err := d.Apply(tr); err != nil {
			return nil, fmt.Errorf("fairness: step %d: %w", i, err)
		}
	}
	return A, nil
}

// Lemma44Bound returns the equality-type bound underlying Lemma 4.4 for a
// single-head set: the deactivation set of any trigger contains at most
// Σ_σ |etypes of head(σ)| indices, because stopped atoms produced by the
// same TGD agree on their frontier and must realise pairwise distinct
// equality types.
func Lemma44Bound(set *tgds.Set) (int, error) {
	if !set.IsSingleHead() {
		return 0, fmt.Errorf("fairness: Lemma 4.4 is a single-head statement")
	}
	n := 0
	for _, t := range set.TGDs {
		n += len(etypes.AllForPredicate(t.HeadAtom().Pred))
	}
	return n, nil
}

// CheckLemma44 verifies the Lemma 4.4 bound on a concrete prefix: for the
// given witness trigger, |A| must not exceed the equality-type bound. It
// returns |A|, the bound, and an error if the bound is violated (which
// would falsify the lemma) or the set is multi-head.
func CheckLemma44(db *instance.Database, set *tgds.Set, triggers []chase.Trigger, witness chase.Trigger) (int, int, error) {
	bound, err := Lemma44Bound(set)
	if err != nil {
		return 0, 0, err
	}
	A, err := deactivationSet(db, set, triggers, witness)
	if err != nil {
		return 0, 0, err
	}
	if len(A) > bound {
		return len(A), bound, fmt.Errorf("fairness: Lemma 4.4 violated: |A| = %d > bound %d", len(A), bound)
	}
	return len(A), bound, nil
}

// UnfairWitnesses returns the triggers that were active at some point of
// the replayed prefix and are still active at its end — the obstructions to
// fairness that Fairize eliminates.
func UnfairWitnesses(db *instance.Database, set *tgds.Set, triggers []chase.Trigger) ([]chase.Trigger, error) {
	d, log, err := replayRecording(db, set, triggers)
	if err != nil {
		return nil, err
	}
	var out []chase.Trigger
	for _, tr := range log.byID {
		if chase.IsActive(tr, d.Instance()) {
			out = append(out, tr)
		}
	}
	// Deterministic order for tests.
	sort.Slice(out, func(i, j int) bool { return chase.CompareTriggers(out[i], out[j]) < 0 })
	return out, nil
}
