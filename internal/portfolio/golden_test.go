package portfolio

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/guarded"
	"airct/internal/parser"
	"airct/internal/tgds"
	"airct/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

// goldenPrograms lists every program the flat-report golden pins, in file
// order: the repository's .chase examples, the conformance corpus, the
// labeled workload corpus and the seven parametric families at n=2..6.
func goldenPrograms(t *testing.T) (names []string, sets []*tgds.Set) {
	t.Helper()
	for _, pattern := range []string{"../../testdata/*.chase", "../../testdata/conformance/*.chase"} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("no programs match %s: %v", pattern, err)
		}
		for _, file := range files {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := parser.Parse(string(raw))
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			names = append(names, strings.TrimPrefix(file, "../../"))
			sets = append(sets, prog.TGDs)
		}
	}
	for _, l := range workload.Corpus() {
		names = append(names, "corpus/"+l.Name)
		sets = append(sets, l.Set)
	}
	families := []func(int) workload.Labeled{
		workload.DatalogChain, workload.ExistentialChain, workload.LinearCycle,
		workload.SwapIntro, workload.GuardedLadder, workload.StickyJoin, workload.StickyRelay,
	}
	for _, family := range families {
		for n := 2; n <= 6; n++ {
			l := family(n)
			names = append(names, "family/"+l.Name)
			sets = append(sets, l.Set)
		}
	}
	return names, sets
}

// goldenReport is the flat analysis at the conformance budgets (guarded
// budget 500, sticky and MFA bounds at their defaults), through the cache
// when one is given.
func goldenReport(set *tgds.Set, cache *chase.Cache) (*core.Report, error) {
	return Report(context.Background(), set, Options{Guarded: guarded.DecideOptions{MaxSteps: 500}, Cache: cache})
}

// TestFlatReportGolden pins the flat report's rendering — class flags,
// verdict, every reason line in order and the witnesses — on every golden
// program. Regenerate with `go test ./internal/portfolio -run
// TestFlatReportGolden -update` only when a change to the report is
// intended.
func TestFlatReportGolden(t *testing.T) {
	names, sets := goldenPrograms(t)
	var b strings.Builder
	for i, set := range sets {
		rep, err := goldenReport(set, nil)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s", names[i], rep.Summary())
	}
	checkGolden(t, "testdata/report.golden", b.String())
}

// TestFlatReportReplaysFromLedger pins the flat report's memo: on every
// golden program, Report with a cache renders byte for byte the report
// the uncached run renders, cold, warm and warm again from a snapshot of
// the cache, and each warm call costs exactly one cache hit and no miss.
func TestFlatReportReplaysFromLedger(t *testing.T) {
	names, sets := goldenPrograms(t)
	want := make([]string, len(sets))
	cache := chase.NewCache()
	for i, set := range sets {
		rep, err := goldenReport(set, nil)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		want[i] = rep.Summary()
		if cold, err := goldenReport(set, cache); err != nil || cold.Summary() != want[i] {
			t.Fatalf("%s: cold report drifted (err %v):\n%v", names[i], err, cold)
		}
	}
	warmPass := func(label string, cache *chase.Cache) {
		t.Helper()
		for i, set := range sets {
			before := cache.Stats()
			rep, err := goldenReport(set, cache)
			if err != nil {
				t.Fatalf("%s, %s: %v", names[i], label, err)
			}
			if got := rep.Summary(); got != want[i] {
				t.Errorf("%s, %s: replayed report drifted:\n%s\nwant:\n%s", names[i], label, got, want[i])
			}
			after := cache.Stats()
			if after.Hits != before.Hits+1 || after.Misses != before.Misses {
				t.Errorf("%s, %s: hits %d -> %d, misses %d -> %d; want one hit and no miss",
					names[i], label, before.Hits, after.Hits, before.Misses, after.Misses)
			}
		}
	}
	warmPass("warm", cache)
	var buf bytes.Buffer
	if err := cache.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, rep, err := chase.LoadCache(&buf)
	if err != nil || rep.Skipped != 0 || rep.Truncated {
		t.Fatalf("LoadCache: %v, report %+v", err, rep)
	}
	warmPass("restored", restored)
}

// TestCascadeLedgerGolden pins the cascade's stage ledger on every golden
// program at the flat golden's budgets: the conclusion and deciding stage,
// then one line per stage with every StageOutcome field but Duration.
// Regenerate with `go test ./internal/portfolio -run
// TestCascadeLedgerGolden -update` only when a change to a stage record is
// intended.
func TestCascadeLedgerGolden(t *testing.T) {
	names, sets := goldenPrograms(t)
	var b strings.Builder
	for i, set := range sets {
		res, err := Analyze(context.Background(), set, Options{Guarded: guarded.DecideOptions{MaxSteps: 500}})
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		fmt.Fprintf(&b, "== %s == verdict=%v decided-by=%q\n", names[i], res.Conclusion, res.DecidedBy)
		for _, s := range res.Stages {
			fmt.Fprintf(&b, "%s tier=%d decided=%t verdict=%v steps=%d seeds=%d saturated=%d depth=%d evidence=%q detail=%q\n",
				s.Stage, s.Tier, s.Decided, s.Conclusion, s.Steps, s.Seeds, s.Saturated, s.Depth, s.Evidence, s.Detail)
		}
	}
	checkGolden(t, "testdata/ledger.golden", b.String())
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update, and reports the first drifted line.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
