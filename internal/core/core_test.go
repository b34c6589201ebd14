package core_test

// The flat report's tests. The report is filled by portfolio.Report, the
// exhaustive schedule of the one orchestrator; these tests hold it to the
// ground truth and to its rendering.

import (
	"context"
	"strings"
	"testing"

	"airct/internal/core"
	"airct/internal/parser"
	"airct/internal/portfolio"
	"airct/internal/tgds"
	"airct/internal/workload"
)

func analyze(set *tgds.Set) (*core.Report, error) {
	return portfolio.Report(context.Background(), set, portfolio.Options{})
}

func TestAnalyzeCorpusMatchesGroundTruth(t *testing.T) {
	// The whole point of the reproduction: on the labeled corpus, the
	// analyzer's verdicts agree with the ground truth everywhere a verdict
	// is reached, and a verdict is reached for every guarded or sticky
	// member.
	for _, l := range workload.Corpus() {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			rep, err := analyze(l.Set)
			if err != nil {
				t.Fatal(err)
			}
			want := core.Diverges
			if l.Terminates {
				want = core.Terminates
			}
			if l.Guarded || l.Sticky {
				if rep.Conclusion == core.Unknown {
					t.Fatalf("guarded/sticky member must get a verdict: %s", rep.Summary())
				}
			}
			if rep.Conclusion != core.Unknown && rep.Conclusion != want {
				t.Errorf("verdict %v, ground truth %v\n%s", rep.Conclusion, want, rep.Summary())
			}
			for _, why := range rep.Reasons {
				if strings.Contains(why, "CONTRADICTION") {
					t.Errorf("contradicting verdicts: %s", why)
				}
			}
		})
	}
}

func TestAnalyzeRejectsEmptySet(t *testing.T) {
	set, err := parser.ParseTGDs(``)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analyze(set); err == nil {
		t.Error("empty set must error")
	}
}

func TestAnalyzeUnknownOutsideClasses(t *testing.T) {
	// Single-head, unguarded, not sticky, not WA/JA/MFA: honest Unknown.
	set, err := parser.ParseTGDs(`R(X,Y), R(Y,Z) -> R(Z,W).`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SingleHead || rep.Guarded || rep.Sticky {
		t.Fatalf("program left its classes:\n%s", rep.Summary())
	}
	if rep.WeaklyAcyclic || rep.JointlyAcyclic || rep.MFA {
		t.Fatalf("a sufficient condition holds; pick a harder program:\n%s", rep.Summary())
	}
	if rep.Conclusion != core.Unknown {
		t.Errorf("expected Unknown:\n%s", rep.Summary())
	}
	if len(rep.Reasons) == 0 || !strings.Contains(rep.Reasons[len(rep.Reasons)-1], "undecidable in general, Theorem 3.6") {
		t.Errorf("Unknown must cite undecidability: %v", rep.Reasons)
	}
}

func TestSummaryRendersWitness(t *testing.T) {
	set, err := parser.ParseTGDs(`S(X) -> R(X,Y). R(X,Y) -> S(Y).`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conclusion != core.Diverges {
		t.Fatalf("ladder diverges:\n%s", rep.Summary())
	}
	s := rep.Summary()
	if !strings.Contains(s, "diverges") || !strings.Contains(s, "witness") {
		t.Errorf("summary lacks verdict/witness:\n%s", s)
	}
}

func TestConclusionString(t *testing.T) {
	if core.Unknown.String() != "unknown" || core.Terminates.String() != "terminates" || core.Diverges.String() != "diverges" {
		t.Error("Conclusion.String mismatch")
	}
}
