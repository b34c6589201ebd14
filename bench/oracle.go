package main

// The verdict oracle. Ground truth comes from three sources, and only these:
//
//   - workload.Labeled.Terminates: the families and the corpus are labelled
//     by construction;
//   - the `# expect:` header of testdata/conformance/*.chase (decide= and
//     exists=);
//   - workload.StageGrid(n) for n ≤ 8: its fixpoint is reachable within the
//     default ∀∃ budgets, so the search must answer found.
//
// An answer of unknown, budget or cancelled is undecided, never wrong. A
// program marked exists=budget carries no claim: the mark records where the
// search stopped, not what is true.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// decidedVerdicts are the answers that make a semantic claim.
var decidedVerdicts = map[string]bool{
	"terminates": true,
	"diverges":   true,
	"found":      true,
	"exhausted":  true,
}

// judge classifies one answer against the program's truth ("" when there is
// none): decided reports a semantic claim, wrong a claim that contradicts
// the truth.
func judge(truth, got string) (decided, wrong bool) {
	decided = decidedVerdicts[got]
	wrong = decided && truth != "" && got != truth
	return decided, wrong
}

// conformanceProgram is one corpus file with its golden verdicts.
type conformanceProgram struct {
	name   string
	source string // the program with comment lines removed
	expect map[string]string
}

// loadConformance reads testdata/conformance under root, sorted by name.
func loadConformance(root string) ([]conformanceProgram, error) {
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "conformance", "*.chase"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no conformance programs under %s", root)
	}
	sort.Strings(paths)
	var out []conformanceProgram
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		cp := conformanceProgram{name: strings.TrimSuffix(filepath.Base(p), ".chase"), expect: map[string]string{}}
		var body strings.Builder
		for _, line := range strings.Split(string(raw), "\n") {
			trimmed := strings.TrimSpace(line)
			if rest, ok := strings.CutPrefix(trimmed, "# expect:"); ok {
				for _, kv := range strings.Fields(rest) {
					k, v, ok := strings.Cut(kv, "=")
					if !ok {
						return nil, fmt.Errorf("%s: malformed expect directive %q", p, kv)
					}
					cp.expect[k] = v
				}
				continue
			}
			if trimmed == "" || strings.HasPrefix(trimmed, "#") {
				continue
			}
			body.WriteString(trimmed)
			body.WriteByte('\n')
		}
		cp.source = body.String()
		out = append(out, cp)
	}
	return out, nil
}
