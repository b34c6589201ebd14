package chase

import (
	"fmt"

	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// Derivation is a manually driven restricted chase derivation: the caller
// chooses which active trigger to apply at each step. It is the tool behind
// the Fairness-Theorem experiments, where specific (possibly unfair)
// derivations must be constructed, and behind validation of extracted
// derivations in ochase.
type Derivation struct {
	set   *tgds.Set
	db    *instance.Database
	inst  *instance.Instance
	nulls *NullFactory
	steps []Step
}

// NewDerivation starts a derivation at I_0 = D.
func NewDerivation(db *instance.Database, set *tgds.Set) *Derivation {
	return &Derivation{
		set:   set,
		db:    db,
		inst:  db.Instance(),
		nulls: NewNullFactory(),
	}
}

// Instance returns the current instance I_n (live view; do not mutate).
func (d *Derivation) Instance() *instance.Instance { return d.inst }

// Len returns the number of steps applied.
func (d *Derivation) Len() int { return len(d.steps) }

// Active returns the active triggers on the current instance, in
// deterministic order.
func (d *Derivation) Active() []Trigger { return ActiveTriggers(d.set, d.inst) }

// Apply performs I⟨σ,h⟩J for the given trigger, which must be active on the
// current instance; applying a non-active trigger is an error (the
// restricted chase only applies active triggers).
func (d *Derivation) Apply(tr Trigger) error {
	if !IsActive(tr, d.inst) {
		return fmt.Errorf("chase: trigger %v is not active", tr)
	}
	if logic.FindHomomorphism(tr.TGD.Body, tr.H, d.inst) == nil {
		return fmt.Errorf("chase: %v is not a trigger on the current instance", tr)
	}
	result := Result(tr, d.nulls)
	added := make([]logic.Atom, 0, len(result))
	for _, a := range result {
		if d.inst.Add(a) {
			added = append(added, a)
		}
	}
	d.steps = append(d.steps, Step{Trigger: tr, Result: result, Added: added})
	return nil
}

// IsFairAtHorizon reports a *necessary* condition for fairness observable on
// a finite prefix: no trigger that became active at some step is still
// active at the end while having been active continuously. For genuinely
// infinite derivations this is only evidence, not proof; the fairness
// package provides the constructive transformation.
func (d *Derivation) IsFairAtHorizon() bool {
	// Replay the derivation, collecting every trigger that was ever active,
	// then check each against the final instance.
	inst := d.db.Instance()
	trigs := NewTriggerInterner()
	var everActive []Trigger
	record := func() {
		for _, tr := range ActiveTriggers(d.set, inst) {
			if _, isNew := trigs.Intern(tr); isNew {
				everActive = append(everActive, tr)
			}
		}
	}
	record()
	for _, s := range d.steps {
		for _, a := range s.Added {
			inst.Add(a)
		}
		record()
	}
	for _, tr := range everActive {
		if IsActive(tr, d.inst) {
			return false
		}
	}
	return true
}
