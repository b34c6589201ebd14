package chase

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"airct/internal/parser"
	"airct/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

// existsGoldenCase is one search the golden pins: a program and its budgets
// (0 keeps the SearchOptions default).
type existsGoldenCase struct {
	name      string
	prog      *parser.Program
	maxStates int
	maxAtoms  int
}

// existsGoldenCases lists every search the golden pins, in file order: the
// differential corpus, each conformance program with an exists= mark at the
// conformance harness's budgets (5000 states, 80 atoms) and at the default
// budgets /v1/exists serves (10,000 states, 200 atoms), the stage grids
// n = 3..8 at the default budgets, and the kernel benchmarks' workloads at
// their benchmark budgets.
func existsGoldenCases(t *testing.T) []existsGoldenCase {
	t.Helper()
	var cases []existsGoldenCase
	for _, tc := range differentialExistsPrograms {
		cases = append(cases, existsGoldenCase{"differential/" + tc.name, parser.MustParse(tc.src), tc.maxStates, tc.maxAtoms})
	}
	files, err := filepath.Glob("../../testdata/conformance/*.chase")
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance corpus found: %v", err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !hasExistsMark(string(raw)) {
			continue
		}
		prog, err := parser.Parse(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		name := strings.TrimSuffix(filepath.Base(file), ".chase")
		cases = append(cases,
			existsGoldenCase{"conformance/" + name, prog, 5000, 80},
			existsGoldenCase{"default-budgets/" + name, prog, 0, 0})
	}
	for n := 3; n <= 8; n++ {
		cases = append(cases, existsGoldenCase{fmt.Sprintf("stage-grid-%d", n), workload.StageGrid(n), 0, 0})
	}
	cases = append(cases,
		existsGoldenCase{"null-grid-7", nullGrid(7), 3000, 0},
		existsGoldenCase{"sweep-ladder-16", ladderGrid(16), 6561, 1000},
		existsGoldenCase{"bench/order-sensitive", parser.MustParse(`
			R(a,b).
			grow: R(X,Y) -> R(Y,Z).
			swap: R(X,Y) -> R(Y,X).
		`), 5000, 0},
	)
	return cases
}

// hasExistsMark reports whether the program's `# expect:` header carries an
// exists= key.
func hasExistsMark(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "# expect:"); ok {
			for _, kv := range strings.Fields(rest) {
				if strings.HasPrefix(kv, "exists=") {
					return true
				}
			}
		}
	}
	return false
}

// TestExistsGolden pins the ∀∃ search's whole output under every frontier
// order of searchOrders: the verdict, StatesVisited, every SearchStats field
// and the rendered witness. Regenerate with `go test ./internal/chase -run
// TestExistsGolden -update` only when a change to what the search explores
// is intended; a change to how it explores must leave the file unedited.
func TestExistsGolden(t *testing.T) {
	var b strings.Builder
	for _, tc := range existsGoldenCases(t) {
		for _, order := range searchOrders {
			res := mustSearch(t, tc.prog.Database, tc.prog.TGDs, SearchOptions{
				MaxStates: tc.maxStates, MaxAtoms: tc.maxAtoms, order: order.order,
			})
			fmt.Fprintf(&b, "== %s/%s == found=%t exhausted=%t states=%d\n", tc.name, order.name, res.Found, res.Exhausted, res.StatesVisited)
			st := res.Stats
			fmt.Fprintf(&b, "expanded=%d memo-hits=%d peak-frontier=%d index-repairs=%d index-rebuilds=%d activity-rechecks=%d\n",
				st.StatesExpanded, st.MemoHits, st.PeakFrontier, st.IndexRepairs, st.IndexRebuilds, st.ActivityRechecks)
			for i, tr := range res.Derivation {
				fmt.Fprintf(&b, "%d: %s\n", i, tr)
			}
		}
	}
	checkGolden(t, "testdata/exists.golden", b.String())
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update, and reports the first drifted line.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
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
