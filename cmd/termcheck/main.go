// Command termcheck decides all-instances restricted chase termination
// (CT^res_∀∀ membership) for a TGD program:
//
//	termcheck [-guarded-budget N] [-sticky-states N] [file]
//
// The program is read from the file argument or stdin. Facts in the input
// are ignored for the decision (the question is all-instances) but are
// reported. By default every check and decision procedure runs and the flat
// report (portfolio.Report) is printed: class flags, the verdict and one
// reason per finding. Exit status: 0 terminating, 1 diverging, 2 unknown,
// 3 error.
//
// With -exists the question changes to the paper's open question (3),
// CT^res_∀∃ on the *given* database: does some trigger order reach a
// fixpoint? The fingerprint-memoised derivation search runs smallest
// instance first with the -exists-states/-exists-atoms budgets. Exit
// status: 0 a finite derivation exists (and a witness is
// printed), 1 the bounded space was exhausted (every derivation is
// infinite), 2 a budget stopped the search, 3 error.
//
// -portfolio answers the ∀∀ question through the staged cascade
// (portfolio.Analyze): Tier 0 cheap sufficient conditions in cost order,
// Tier 1 the guarded seed scan at a 64-step budget (the probe), Tier 2 the
// semantic deciders one after another, stopping at the first decisive
// one. The conclusion — and hence the exit code — is pinned
// bit-identical to the flat report's; a `portfolio:` line reports the
// verdict, the deciding stage and per-stage work. Facts in the input are
// ignored and reported, as in the flat report. Every analysis runs on one
// goroutine.
//
// -cache routes the run through a cross-run chase cache
// (internal/chase/cache.go): whole flat reports, whole portfolio runs and
// whole -exists search outcomes are memoised on (TGD-set fingerprint,
// instance fingerprint) keys, and a `cache:` stats line reports
// hits/misses/entries/bytes and evictions. Within one invocation nothing
// repeats, so the cache only takes writes; hits come from -cache-file.
// Verdicts are bit-identical with and without the cache.
//
// -cache-file PATH makes that cache persistent (and implies -cache): an
// existing snapshot at PATH is loaded before the run — a corrupt or
// version-mismatched file is reported and ignored, never fatal — and the
// cache is snapshotted back to PATH on exit via an atomic rename, so warm
// wins compound across invocations. The format is the versioned,
// checksummed binary layout of internal/chase/snapshot.go.
//
// -cpuprofile/-memprofile write pprof profiles of whichever question was
// asked, so hot-spot claims about the decision procedures and the search
// (like the trigger-index numbers in BENCH_delta.json) are reproducible
// straight from the CLI: `go tool pprof termcheck cpu.out`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/guarded"
	"airct/internal/parser"
	"airct/internal/portfolio"
	"airct/internal/serve"
	"airct/internal/sticky"
)

func main() {
	guardedBudget := flag.Int("guarded-budget", guarded.DefaultMaxSteps, "per-seed chase step budget for the guarded search")
	stickyStates := flag.Int("sticky-states", sticky.DefaultMaxStates, "state bound per sticky Büchi component")
	exists := flag.Bool("exists", false, "search for a finite derivation of the input database (CT^res_∀∃) instead of deciding all-instances termination")
	existsStates := flag.Int("exists-states", chase.DefaultSearchStates, "state budget for the -exists search")
	existsAtoms := flag.Int("exists-atoms", chase.DefaultSearchAtoms, "per-instance atom bound for the -exists search")
	usePortfolio := flag.Bool("portfolio", false, "answer the all-instances question through the staged decider portfolio (cheap checks, k-round probe, semantic deciders)")
	useCache := flag.Bool("cache", false, "memoise whole answers (the flat report, portfolio runs, -exists searches) in a cross-run cache and report a cache: stats line")
	cacheFile := flag.String("cache-file", "", "persist the cross-run cache: load the snapshot at this path if it exists and save it back atomically on exit (implies -cache)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to the file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to the file before exiting")
	flag.Parse()

	// All exits funnel through this point so the deferred profile writers
	// run: os.Exit anywhere deeper would silently truncate the profiles. A
	// failed heap-profile write overrides the verdict code with 3, matching
	// the -cpuprofile error contract.
	os.Exit(func() (code int) {
		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return fail(err)
			}
			defer pprof.StopCPUProfile()
		}
		if *memprofile != "" {
			defer func() {
				if err := writeHeapProfile(*memprofile); err != nil {
					code = fail(err)
				}
			}()
		}
		return run(*guardedBudget, *stickyStates, *exists, *existsStates, *existsAtoms, *usePortfolio, *useCache, *cacheFile)
	}())
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialise the retained heap before snapshotting
	return pprof.WriteHeapProfile(f)
}

func run(guardedBudget, stickyStates int, exists bool, existsStates, existsAtoms int, usePortfolio, useCache bool, cacheFile string) int {
	src, err := readInput(flag.Arg(0))
	if err != nil {
		return fail(err)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		return fail(err)
	}
	if prog.TGDs.Len() == 0 && !prog.TGDs.HasEGDs() {
		return fail(fmt.Errorf("no TGDs in input"))
	}
	if exists && prog.TGDs.HasEGDs() {
		return fail(fmt.Errorf("-exists is TGD-only: the derivation search does not model equality steps"))
	}
	if exists && usePortfolio {
		return fail(fmt.Errorf("-exists and -portfolio ask different questions; choose one"))
	}
	cache := openCache(useCache, cacheFile)
	code := func() int {
		if exists {
			return runExists(prog, existsStates, existsAtoms, cache)
		}
		if usePortfolio {
			return runPortfolio(prog, guardedBudget, stickyStates, cache)
		}
		return runReport(prog, guardedBudget, stickyStates, cache)
	}()
	// A run stores its one entry when its one analysis returns, so one
	// save at exit writes everything; SaveCacheFile renames atomically, so a
	// run killed before it leaves the snapshot as it was loaded.
	if cacheFile != "" {
		if err := chase.SaveCacheFile(cache, cacheFile); err != nil {
			return fail(err)
		}
	}
	return code
}

func logfStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "termcheck: "+format+"\n", args...)
}

// openCache builds the run's shared cache: empty under plain -cache, warm
// under -cache-file when a loadable snapshot exists (the shared loader in
// internal/serve reports corrupt or partial snapshots to stderr and never
// turns a decidable input into an error).
func openCache(useCache bool, cacheFile string) *chase.Cache {
	if !useCache && cacheFile == "" {
		return nil
	}
	if cacheFile != "" {
		return serve.OpenCacheFile(cacheFile, logfStderr)
	}
	return chase.NewCache()
}

func printCacheStats(cache *chase.Cache) {
	if cache == nil {
		return
	}
	fmt.Println(cache.Stats().String())
}

// noteIgnoredFacts reports the facts that a ∀∀ answer does not read.
func noteIgnoredFacts(prog *parser.Program) {
	if prog.Database.Len() > 0 {
		fmt.Printf("note: %d facts ignored (the question is all-instances)\n", prog.Database.Len())
	}
}

// runReport answers the ∀∀ question with the flat report.
func runReport(prog *parser.Program, guardedBudget, stickyStates int, cache *chase.Cache) int {
	noteIgnoredFacts(prog)
	rep, err := portfolio.Report(context.Background(), prog.TGDs, portfolio.Options{
		Guarded: guarded.DecideOptions{MaxSteps: guardedBudget},
		Sticky:  sticky.DecideOptions{MaxStates: stickyStates},
		Cache:   cache,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Print(setLine(prog))
	fmt.Print(rep.Summary())
	printCacheStats(cache)
	return exitCode(rep.Conclusion)
}

// runPortfolio answers the ∀∀ question through the staged cascade and
// reports per-stage work. The exit code funnel matches the flat report's:
// the cascade's conclusion is pinned bit-identical to it.
func runPortfolio(prog *parser.Program, guardedBudget, stickyStates int, cache *chase.Cache) int {
	noteIgnoredFacts(prog)
	start := time.Now()
	res, err := portfolio.Analyze(context.Background(), prog.TGDs, portfolio.Options{
		Guarded: guarded.DecideOptions{MaxSteps: guardedBudget},
		Sticky:  sticky.DecideOptions{MaxStates: stickyStates},
		Cache:   cache,
	})
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)
	fmt.Print(setLine(prog))
	fmt.Printf("portfolio: verdict=%s decided-by=%s stages=%d cache-hit=%t elapsed=%s\n",
		res.Conclusion, orDash(res.DecidedBy), len(res.Stages), res.CacheHit, elapsed.Round(time.Microsecond))
	for _, s := range res.Stages {
		fmt.Printf("portfolio-stage: name=%s tier=%d decided=%t verdict=%s steps=%d saturated=%d/%d depth=%d elapsed=%s detail=%q\n",
			s.Stage, s.Tier, s.Decided, s.Conclusion, s.Steps, s.Saturated, s.Seeds, s.Depth, s.Duration.Round(time.Microsecond), s.Detail)
	}
	printCacheStats(cache)
	return exitCode(res.Conclusion)
}

// exitCode maps a ∀∀ conclusion onto the documented exit status.
func exitCode(c core.Conclusion) int {
	switch c {
	case core.Terminates:
		return 0
	case core.Diverges:
		return 1
	default:
		return 2
	}
}

// setLine renders the input summary; EGD counts appear only when present,
// keeping TGD-only output byte-identical to earlier versions.
func setLine(prog *parser.Program) string {
	if prog.TGDs.HasEGDs() {
		return fmt.Sprintf("set: %d TGDs + %d EGDs over %d predicates\n",
			prog.TGDs.Len(), prog.TGDs.NumEGDs(), prog.TGDs.Schema().Len())
	}
	return fmt.Sprintf("set: %d TGDs over %d predicates\n", prog.TGDs.Len(), prog.TGDs.Schema().Len())
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// runExists runs the ∀∃ derivation search on the program's database and
// returns the search's verdict as an exit code.
func runExists(prog *parser.Program, maxStates, maxAtoms int, cache *chase.Cache) int {
	if prog.Database.Len() == 0 {
		return fail(fmt.Errorf("-exists needs facts in the input (the question is per-database)"))
	}
	res, err := chase.SearchTerminatingDerivation(prog.Database, prog.TGDs, chase.SearchOptions{
		MaxStates: maxStates,
		MaxAtoms:  maxAtoms,
		Cache:     cache,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Printf("exists-search: states=%d expanded=%d memo-hits=%d peak-frontier=%d\n",
		res.StatesVisited, res.Stats.StatesExpanded, res.Stats.MemoHits, res.Stats.PeakFrontier)
	fmt.Printf("trigger-index: repairs=%d rebuilds=%d activity-rechecks=%d\n",
		res.Stats.IndexRepairs, res.Stats.IndexRebuilds, res.Stats.ActivityRechecks)
	printCacheStats(cache)
	switch {
	case res.Found:
		fmt.Printf("finite derivation exists: %d steps\n", len(res.Derivation))
		for i, tr := range res.Derivation {
			fmt.Printf("  %d: %s\n", i, tr)
		}
		return 0
	case res.Exhausted:
		fmt.Println("no finite derivation: the bounded space is exhausted (every derivation is infinite)")
		return 1
	default:
		fmt.Println("unknown: the search budget was reached before exhausting the space")
		return 2
	}
}

func readInput(path string) (string, error) {
	if path == "" || path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "termcheck:", err)
	return 3
}
