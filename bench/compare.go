package main

// bench compare: the in-repo comparator. For each workload × metric it
// takes the median and quartiles of each side's runs and judges the change
// from A to B against the bounds in BENCHMARK.json. A workload is also worse
// when B gave a wrong verdict or failed a larger share of its requests, and
// two sets whose streams differ are not compared at all.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method); a single
// value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// workloadRuns is one side's runs of one workload: each metric's values, one
// per run, the requests attempted and failed, the runs with a wrong
// verdict, and the stream hash of each seed.
type workloadRuns struct {
	values            map[string][]float64
	attempted, failed int
	wrongRuns         int
	streams           map[int64]string
}

// loadRuns collects every results.json under path (a file or a directory)
// by workload.
func loadRuns(path string) (map[string]*workloadRuns, int, error) {
	out := map[string]*workloadRuns{}
	files := 0
	err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || filepath.Base(p) != "results.json" {
			return nil
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rf resultsFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if rf.Schema != resultsSchema {
			return fmt.Errorf("%s: schema %q, want %q", p, rf.Schema, resultsSchema)
		}
		files++
		seed := rf.Provenance.Seed
		for _, w := range rf.Workloads {
			r := out[w.Workload]
			if r == nil {
				r = &workloadRuns{values: map[string][]float64{}, streams: map[int64]string{}}
				out[w.Workload] = r
			}
			for _, part := range []metrics{w.E2E, w.PerLayer} {
				for k, m := range part {
					r.values[k] = append(r.values[k], m.Value)
				}
			}
			r.attempted += w.Attempted
			r.failed += w.Failed
			if !w.Correct {
				r.wrongRuns++
			}
			h := rf.Provenance.StreamHashes[w.Workload]
			if prev, ok := r.streams[seed]; ok && prev != h {
				return fmt.Errorf("%s: %s at seed %d sent another stream than an earlier file", p, w.Workload, seed)
			}
			r.streams[seed] = h
		}
		return nil
	})
	if err == nil && files == 0 {
		err = fmt.Errorf("no results.json under %s", path)
	}
	return out, files, err
}

// judgement is one e2e metric's verdict.
type judgement struct {
	verdict          string // improved, worse, same or unresolved
	change, spreadAB float64
}

// judgeChange compares runs a (the parent) and b (the change). change is
// the relative move of the median, positive when b is worse. A spread
// wider than the bound leaves the result unresolved unless every run of b
// beats every run of a.
func judgeChange(a, b []float64, better string, bound float64) judgement {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	j := judgement{change: sign * (mb - ma) / math.Abs(ma), spreadAB: math.Max(spread(a), spread(b))}
	if ma == 0 {
		j.change = 0
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case j.spreadAB > bound && allBetter:
		j.verdict = "improved"
	case j.spreadAB > bound:
		j.verdict = "unresolved"
	case j.change > bound:
		j.verdict = "worse"
	case -j.change > bound:
		j.verdict = "improved"
	default:
		j.verdict = "same"
	}
	return j
}

// judgeHealth returns why B is worse than A regardless of its metrics: a
// run of B gave a wrong verdict, or B failed a larger share of its requests
// than A did. Latency and throughput count only answered requests, so
// without this a change that fails requests fast could look like a gain.
func judgeHealth(a, b *workloadRuns) string {
	fa, fb := frac(float64(a.failed), float64(a.attempted)), frac(float64(b.failed), float64(b.attempted))
	switch {
	case b.wrongRuns > 0:
		return fmt.Sprintf("%d run(s) of B gave wrong verdicts", b.wrongRuns)
	case fb > fa:
		return fmt.Sprintf("B failed %d of %d requests, A %d of %d", b.failed, b.attempted, a.failed, a.attempted)
	}
	return ""
}

// sameStreams checks that A and B sent the same requests: they share a
// seed, and each shared seed gave both sides the same stream. A program
// added to or changed in the repository between the two commits changes
// the stream, and the difference it makes must not be blamed on the code.
func sameStreams(a, b *workloadRuns) error {
	shared := 0
	for seed, ha := range a.streams {
		hb, ok := b.streams[seed]
		if !ok {
			continue
		}
		if ha != hb {
			return fmt.Errorf("seed %d sent different streams on A (%.12s) and B (%.12s)", seed, ha, hb)
		}
		shared++
	}
	if shared == 0 {
		return fmt.Errorf("A and B share no seed, so their streams cannot be checked")
	}
	return nil
}

func cmdCompare(args []string) int {
	fset := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if fset.NArg() != 2 {
		return fail(fmt.Errorf("usage: bench compare A B (results directories)"))
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	b, err := readBenchmark(root)
	if err != nil {
		return fail(err)
	}
	runsA, nA, err := loadRuns(fset.Arg(0))
	if err != nil {
		return fail(err)
	}
	runsB, nB, err := loadRuns(fset.Arg(1))
	if err != nil {
		return fail(err)
	}
	for _, wl := range workloadNames {
		if a, b2 := runsA[wl], runsB[wl]; a != nil && b2 != nil {
			if err := sameStreams(a, b2); err != nil {
				return fail(fmt.Errorf("refusing to compare %s: %w", wl, err))
			}
		}
	}
	fmt.Printf("A=%s (%d files)  B=%s (%d files)\n", fset.Arg(0), nA, fset.Arg(1), nB)
	worse := 0
	for _, wl := range workloadNames {
		wa, wb := runsA[wl], runsB[wl]
		if wa == nil || wb == nil {
			continue
		}
		a, b2 := wa.values, wb.values
		fmt.Printf("\n== %s\n%-34s %12s %12s %8s %8s %7s  %s\n", wl, "metric", "median A", "median B", "change", "spread", "bound", "verdict")
		if why := judgeHealth(wa, wb); why != "" {
			fmt.Printf("%-34s %s\n", "failed/correct", "worse: "+why)
			worse++
		}
		for _, m := range b.EndToEnd {
			xa, xb := a[m.Name], b2[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			j := judgeChange(xa, xb, m.Better, m.Bound)
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			fmt.Printf("%-34s %12.4f %12.4f %+7.1f%% %7.1f%% %6.1f%%  %s\n", m.Name, ma, mb, 100*j.change, 100*j.spreadAB, 100*m.Bound, j.verdict)
			if j.verdict == "worse" {
				worse++
			}
		}
		for _, m := range b.PerLayer {
			xa, xb := a[m.Name], b2[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			if ma == 0 && mb == 0 {
				continue
			}
			fmt.Printf("  %-32s %12.4f %12.4f\n", m.Name, ma, mb)
		}
	}
	if worse > 0 {
		fmt.Printf("\n%d end-to-end result(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}
