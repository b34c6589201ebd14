// Package core holds the shapes of a termination analysis of a set of
// TGDs for all-instances restricted chase termination (the paper's
// CT^res_∀∀ membership problem): the Conclusion and the flat Report with its
// terminal rendering. The analysis itself — class detection, the
// sufficient-condition baselines, the bounded search that stands in for
// the paper's guarded decision procedure (Section 5), and the caterpillar
// Büchi automaton for sticky sets (Section 6) — is
// orchestrated by internal/portfolio, whose Report fills this package's
// Report.
package core

import (
	"fmt"
	"strings"
)

// Conclusion is the aggregate termination verdict.
type Conclusion uint8

const (
	// Unknown: no decision procedure applied (outside G and S, and no
	// sufficient condition fired). CT^res_∀∀ is undecidable in general
	// (Theorem 3.6), so Unknown is an honest possible answer.
	Unknown Conclusion = iota
	// Terminates: every valid restricted chase derivation of every
	// database is finite.
	Terminates
	// Diverges: some database admits an infinite fair restricted chase
	// derivation.
	Diverges
)

func (c Conclusion) String() string {
	switch c {
	case Terminates:
		return "terminates"
	case Diverges:
		return "diverges"
	default:
		return "unknown"
	}
}

// Report collects everything the analysis derived about a set.
type Report struct {
	// Class flags.
	SingleHead      bool
	Guarded         bool
	Linear          bool
	Sticky          bool
	Full            bool
	FrontierGuarded bool
	WeaklyAcyclic   bool
	JointlyAcyclic  bool
	// MFA is true when the model-faithful-acyclicity check accepted the
	// set within its step budget (false means "not proven", not "cyclic").
	MFA bool
	// EGDs is the number of equality-generating dependencies in the set.
	// When non-zero, the class flags above describe the TGDs alone, and
	// only the EGD-sound conclusions (existential-free, weak acyclicity)
	// are drawn — the decision procedures and the remaining baselines are
	// TGD-only.
	EGDs int

	// Conclusion aggregates the verdicts; Reasons explains each input to
	// the aggregation, in order of application.
	Conclusion Conclusion
	Reasons    []string
	// Witnesses holds one line per divergence witness a decision procedure
	// produced, in stage order: the sticky procedure's caterpillar lasso,
	// the guarded search's witness database.
	Witnesses []string
}

// Summary renders the report for terminals.
func (r *Report) Summary() string {
	var b strings.Builder
	flag := func(name string, v bool) {
		mark := " "
		if v {
			mark = "x"
		}
		fmt.Fprintf(&b, "  [%s] %s\n", mark, name)
	}
	fmt.Fprintf(&b, "classes:\n")
	flag("single-head", r.SingleHead)
	flag("linear", r.Linear)
	flag("guarded (G)", r.Guarded)
	flag("frontier-guarded", r.FrontierGuarded)
	flag("sticky (S)", r.Sticky)
	flag("full (datalog)", r.Full)
	flag("weakly acyclic", r.WeaklyAcyclic)
	flag("jointly acyclic", r.JointlyAcyclic)
	flag("MFA (critical instance)", r.MFA)
	if r.EGDs > 0 {
		fmt.Fprintf(&b, "egds: %d (class flags describe the TGDs alone)\n", r.EGDs)
	}
	fmt.Fprintf(&b, "verdict: %s\n", r.Conclusion)
	for _, why := range r.Reasons {
		fmt.Fprintf(&b, "  - %s\n", why)
	}
	for _, w := range r.Witnesses {
		fmt.Fprintf(&b, "%s\n", w)
	}
	return b.String()
}
