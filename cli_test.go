// CLI integration tests: build the commands once and drive them end to end
// against the testdata programs, asserting verdict exit codes and output
// shape. These cover the full parse → analyse → report pipeline as a user
// sees it.
package airct_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"airct/internal/chase"
	"airct/internal/instance"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// binary builds (once) and returns the path of the named command.
func binary(t *testing.T, name string) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "airct-cli")
		if buildErr != nil {
			return
		}
		for _, cmd := range []string{"termcheck", "termcheckd", "chase", "benchgen", "experiments"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(buildDir, cmd), "./cmd/"+cmd).CombinedOutput()
			if err != nil {
				buildErr = &buildFailure{cmd: cmd, out: string(out), err: err}
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(buildDir, name)
}

type buildFailure struct {
	cmd string
	out string
	err error
}

func (b *buildFailure) Error() string {
	return "building " + b.cmd + ": " + b.err.Error() + "\n" + b.out
}

// run executes the binary and returns stdout+stderr and the exit code.
func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	code := 0
	if exit, ok := err.(*exec.ExitError); ok {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", bin, err)
	}
	return buf.String(), code
}

func TestTermcheckVerdictExitCodes(t *testing.T) {
	bin := binary(t, "termcheck")
	tests := []struct {
		file     string
		wantCode int
		wantWord string
	}{
		{"testdata/intro.chase", 0, "terminates"},
		{"testdata/example32.chase", 0, "terminates"},
		{"testdata/ladder.chase", 1, "diverges"},
		{"testdata/example56.chase", 1, "diverges"},
	}
	for _, tc := range tests {
		t.Run(filepath.Base(tc.file), func(t *testing.T) {
			out, code := run(t, bin, tc.file)
			if code != tc.wantCode {
				t.Errorf("exit = %d, want %d\n%s", code, tc.wantCode, out)
			}
			if !strings.Contains(out, "verdict: "+tc.wantWord) {
				t.Errorf("output lacks verdict %q:\n%s", tc.wantWord, out)
			}
		})
	}
}

func TestTermcheckMultiHeadIsUnknown(t *testing.T) {
	bin := binary(t, "termcheck")
	out, code := run(t, bin, "testdata/exampleB1.chase")
	// Example B.1 is multi-head: outside G and S, not WA — honest Unknown.
	if code != 2 {
		t.Errorf("exit = %d, want 2 (unknown)\n%s", code, out)
	}
	if !strings.Contains(out, "undecidable") {
		t.Errorf("unknown verdict must cite undecidability:\n%s", out)
	}
}

func TestTermcheckExistsSearch(t *testing.T) {
	bin := binary(t, "termcheck")
	// Example B.1 admits a finite derivation (fire mh2 first): exit 0 plus
	// a replayable witness listing.
	out, code := run(t, bin, "-exists", "testdata/exampleB1.chase")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (finite derivation exists)\n%s", code, out)
	}
	if !strings.Contains(out, "finite derivation exists") {
		t.Errorf("missing witness banner:\n%s", out)
	}
	if !strings.Contains(out, "exists-search: states=") {
		t.Errorf("missing search stats line:\n%s", out)
	}
	// The diverging ladder under tight budgets: the search is cut off, not
	// exhausted — honest exit 2.
	out, code = run(t, bin, "-exists", "-exists-states", "200", "-exists-atoms", "12", "testdata/ladder.chase")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (budget)\n%s", code, out)
	}
	if !strings.Contains(out, "unknown") {
		t.Errorf("missing budget verdict:\n%s", out)
	}
	// A program without facts cannot be searched: the question is
	// per-database.
	factless := filepath.Join(t.TempDir(), "factless.chase")
	if err := os.WriteFile(factless, []byte("grow: R(X,Y) -> R(X,Z).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = run(t, bin, "-exists", factless)
	if code != 3 {
		t.Fatalf("exit = %d, want 3 (no facts)\n%s", code, out)
	}
}

func TestTermcheckProfiles(t *testing.T) {
	bin := binary(t, "termcheck")
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	// Profiles must be written (and flushed: exits funnel through the
	// deferred writers) for both questions; non-empty files suffice here —
	// pprof validity is go tool pprof's business.
	out, code := run(t, bin, "-exists", "-cpuprofile", cpu, "-memprofile", mem, "testdata/exampleB1.chase")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	if out, code = run(t, bin, "-memprofile", mem, "testdata/intro.chase"); code != 0 {
		t.Fatalf("∀ question with -memprofile: exit = %d\n%s", code, out)
	}
	if st, err := os.Stat(mem); err != nil || st.Size() == 0 {
		t.Errorf("heap profile not rewritten for the ∀ question (err=%v)", err)
	}
}

// documentedFlags mirrors docs/CLI.md: every flag documented there, per
// command. TestCLIHelpMatchesDocs asserts each appears both in the
// command's -h output and in the doc file, so the three stay in sync.
var documentedFlags = map[string][]string{
	"termcheck":   {"-guarded-budget", "-sticky-states", "-exists", "-exists-states", "-exists-atoms", "-portfolio", "-cache", "-cache-file", "-cpuprofile", "-memprofile"},
	"termcheckd":  {"-addr", "-cache-file", "-cache-save-every", "-max-inflight", "-request-timeout", "-workers"},
	"chase":       {"-variant", "-strategy", "-seed", "-max-steps", "-max-atoms", "-quiet", "-core"},
	"benchgen":    {"-family", "-n", "-db", "-size", "-seed"},
	"experiments": {"-only", "-quick"},
}

func TestCLIHelpMatchesDocs(t *testing.T) {
	docBytes, err := os.ReadFile("docs/CLI.md")
	if err != nil {
		t.Fatalf("docs/CLI.md must exist: %v", err)
	}
	docs := string(docBytes)
	for cmd, flags := range documentedFlags {
		out, _ := run(t, binary(t, cmd), "-h")
		for _, flag := range flags {
			// flag's usage output prints "-name" (one dash).
			if !strings.Contains(out, "\n  "+flag+" ") && !strings.Contains(out, "\n  "+flag+"\n") {
				t.Errorf("%s -h does not mention documented flag %s:\n%s", cmd, flag, out)
			}
			if !strings.Contains(docs, "`"+flag+"`") {
				t.Errorf("docs/CLI.md does not document %s's flag %s", cmd, flag)
			}
		}
		// Reverse direction: every flag the command actually declares must be
		// in documentedFlags (and hence, by the loop above, in docs/CLI.md) —
		// adding a flag without documenting it fails here.
		documented := make(map[string]bool, len(flags))
		for _, f := range flags {
			documented[f] = true
		}
		for _, m := range regexp.MustCompile(`(?m)^  (-[a-z][a-z0-9-]*)`).FindAllStringSubmatch(out, -1) {
			if !documented[m[1]] {
				t.Errorf("%s declares flag %s that docs/CLI.md and documentedFlags do not cover", cmd, m[1])
			}
		}
	}
	// The daemon bounds every request's wall clock unless told otherwise,
	// so no request holds an admission slot for ever.
	out, _ := run(t, binary(t, "termcheckd"), "-h")
	if !regexp.MustCompile(`(?m)^  -request-timeout duration\n.*\(default 1m0s\)$`).MatchString(out) {
		t.Errorf("termcheckd -request-timeout must default to 1m0s:\n%s", out)
	}
}

// TestTermcheckCacheStats pins the -cache surface: a cache: stats line
// with a nonzero entry count (a seed-exhaustion decision stores its seed
// pool and one outcome per seed; a single invocation has nothing to hit),
// and a report otherwise byte-identical to the uncached run.
func TestTermcheckCacheStats(t *testing.T) {
	bin := binary(t, "termcheck")
	cached, code := run(t, bin, "-cache", "testdata/conformance/swap-intro.chase")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, cached)
	}
	m := regexp.MustCompile(`(?m)^cache: hits=\d+ misses=\d+ entries=(\d+) bytes=\d+ evictions=\d+ evicted-entries=\d+\n`).FindStringSubmatch(cached)
	if m == nil {
		t.Fatalf("no cache: stats line:\n%s", cached)
	}
	if m[1] == "0" {
		t.Errorf("cache: entry count is zero on a seed-exhaustion decision:\n%s", cached)
	}
	plain, code := run(t, bin, "testdata/conformance/swap-intro.chase")
	if code != 0 {
		t.Fatalf("uncached exit = %d, want 0\n%s", code, plain)
	}
	if got := strings.Replace(cached, m[0], "", 1); got != plain {
		t.Errorf("-cache changed the report beyond the stats line:\n%s\nvs\n%s", got, plain)
	}
}

// TestTermcheckCacheFilePersists pins the -cache-file surface: the first
// run writes a snapshot, a second run loads it and reports warm hits, and
// the warm report is byte-identical to the cold one modulo the cache stats
// line. A corrupt snapshot must be reported, ignored, and rewritten — never
// fatal.
func TestTermcheckCacheFilePersists(t *testing.T) {
	bin := binary(t, "termcheck")
	snap := filepath.Join(t.TempDir(), "cache.snap")
	cacheLine := regexp.MustCompile(`(?m)^cache: hits=(\d+) misses=\d+ entries=\d+ bytes=\d+ evictions=\d+ evicted-entries=\d+\n`)

	cold, code := run(t, bin, "-cache-file", snap, "testdata/conformance/swap-intro.chase")
	if code != 0 {
		t.Fatalf("cold exit = %d, want 0\n%s", code, cold)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written on exit: %v", err)
	}

	warm, code := run(t, bin, "-cache-file", snap, "testdata/conformance/swap-intro.chase")
	if code != 0 {
		t.Fatalf("warm exit = %d, want 0\n%s", code, warm)
	}
	wm := cacheLine.FindStringSubmatch(warm)
	if wm == nil {
		t.Fatalf("warm run: no cache: stats line:\n%s", warm)
	}
	if wm[1] == "0" {
		t.Errorf("warm restart reports zero hits — the snapshot did not warm the cache:\n%s", warm)
	}
	if cacheLine.ReplaceAllString(warm, "") != cacheLine.ReplaceAllString(cold, "") {
		t.Errorf("-cache-file changed the report beyond the stats line:\n%s\nvs\n%s", warm, cold)
	}

	// Corruption: an unreadable snapshot is ignored with a warning and the
	// run still succeeds (and rewrites the file with a fresh snapshot).
	if err := os.WriteFile(snap, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, bin, "-cache-file", snap, "testdata/conformance/swap-intro.chase")
	if code != 0 {
		t.Fatalf("corrupt snapshot exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "ignoring cache file") {
		t.Errorf("corrupt snapshot not reported:\n%s", out)
	}
	rewarm, code := run(t, bin, "-cache-file", snap, "testdata/conformance/swap-intro.chase")
	if code != 0 {
		t.Fatalf("rewritten snapshot exit = %d, want 0\n%s", code, rewarm)
	}
	if m := cacheLine.FindStringSubmatch(rewarm); m == nil || m[1] == "0" {
		t.Errorf("rewritten snapshot did not warm the next run:\n%s", rewarm)
	}
}

// TestTermcheckPortfolio pins the -portfolio surface: the staged summary
// lines, exit codes identical to the plain analysis on terminating,
// diverging and unknown inputs, and the cache: stats line under -cache.
func TestTermcheckPortfolio(t *testing.T) {
	bin := binary(t, "termcheck")
	out, code := run(t, bin, "-portfolio", "testdata/intro.chase")
	if code != 0 {
		t.Fatalf("intro: exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "portfolio: verdict=terminates") {
		t.Errorf("intro: missing portfolio summary line:\n%s", out)
	}
	if !strings.Contains(out, "portfolio-stage: name=") {
		t.Errorf("intro: missing per-stage lines:\n%s", out)
	}

	out, code = run(t, bin, "-portfolio", "testdata/conformance/ladder.chase")
	if code != 1 {
		t.Fatalf("ladder: exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "decided-by=sticky") {
		t.Errorf("ladder: wrong deciding stage:\n%s", out)
	}
	// ladder.chase carries a fact, which the ∀∀ question does not read.
	if !strings.Contains(out, "note: 1 facts ignored (the question is all-instances)") {
		t.Errorf("ladder: ignored fact not reported:\n%s", out)
	}
	if strings.Contains(out, "portfolio-stage: name=exists") {
		t.Errorf("ladder: ∀∀ run served an exists stage:\n%s", out)
	}

	out, code = run(t, bin, "-portfolio", "testdata/exampleB1.chase")
	if code != 2 {
		t.Fatalf("exampleB1: exit = %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, "verdict=unknown decided-by=-") {
		t.Errorf("exampleB1: undecided set not reported as such:\n%s", out)
	}

	out, code = run(t, bin, "-portfolio", "-cache", "testdata/conformance/swap-intro.chase")
	if code != 0 {
		t.Fatalf("swap-intro cached: exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "decided-by=jointree-prune") {
		t.Errorf("swap-intro: prune stage did not decide:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^cache: hits=\d+ misses=\d+ entries=\d+ bytes=\d+ evictions=\d+ evicted-entries=\d+$`).MatchString(out) {
		t.Errorf("swap-intro cached: no cache: stats line:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^portfolio-stage: name=\S+ tier=\d+ decided=(true|false) verdict=\S+ steps=\d+ saturated=\d+/\d+ depth=\d+ elapsed=\S+ detail="`).MatchString(out) {
		t.Errorf("swap-intro cached: portfolio-stage line lacks probe diagnostics fields:\n%s", out)
	}

	// The Tier 1 rejecting fast path: guard-chain-pump diverges, is guarded
	// non-sticky, and must be decided by the probe itself — its stage line
	// carries the full-budget-confirmed pump certificate.
	out, code = run(t, bin, "-portfolio", "testdata/conformance/guard-chain-pump.chase")
	if code != 1 {
		t.Fatalf("guard-chain-pump: exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "verdict=diverges decided-by=probe") {
		t.Errorf("guard-chain-pump: probe reject did not decide:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^portfolio-stage: name=probe tier=1 decided=true verdict=diverges .*detail="probe: pump at depth \d+ within k=\d+`).MatchString(out) {
		t.Errorf("guard-chain-pump: rejecting probe stage line lacks the certificate:\n%s", out)
	}

	if out, code = run(t, bin, "-portfolio", "-exists", "testdata/conformance/ladder.chase"); code != 3 {
		t.Errorf("-portfolio with -exists must be a usage error (exit 3), got %d:\n%s", code, out)
	}
}

func TestTermcheckRejectsBadInput(t *testing.T) {
	bin := binary(t, "termcheck")
	for i, src := range []string{
		"R(a, Y) -> S(Y).",
		// One argument past instance.MaxArity.
		"W(" + strings.Repeat("X,", instance.MaxArity) + "X) -> W(" + strings.Repeat("X,", instance.MaxArity) + "X).",
	} {
		bad := filepath.Join(t.TempDir(), fmt.Sprintf("bad%d.chase", i))
		if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		out, code := run(t, bin, bad)
		if code != 3 {
			t.Errorf("input %d: exit = %d, want 3\n%s", i, code, out)
		}
	}
}

func TestChaseCommandVariants(t *testing.T) {
	bin := binary(t, "chase")
	// Restricted on the intro example: fixpoint, 1 atom, exit 0.
	out, code := run(t, bin, "-variant", "restricted", "testdata/intro.chase")
	if code != 0 {
		t.Fatalf("restricted exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "R(a,b).") {
		t.Errorf("instance dump missing R(a,b):\n%s", out)
	}
	if !strings.Contains(out, "reason=fixpoint") {
		t.Errorf("stats missing:\n%s", out)
	}
	// Oblivious with a budget: exit 1.
	out, code = run(t, bin, "-variant", "oblivious", "-max-steps", "50", "-quiet", "testdata/intro.chase")
	if code != 1 {
		t.Fatalf("oblivious exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "reason=step-budget") {
		t.Errorf("budget reason missing:\n%s", out)
	}
	// Unknown variant: exit 3.
	if _, code = run(t, bin, "-variant", "nope", "testdata/intro.chase"); code != 3 {
		t.Errorf("bad variant exit = %d", code)
	}
}

func TestChaseExample32MatchesPaper(t *testing.T) {
	bin := binary(t, "chase")
	out, code := run(t, bin, "testdata/example32.chase")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, want := range []string{"P(a,b).", "R(a,b).", "S(a)."} {
		if !strings.Contains(out, want) {
			t.Errorf("restricted result must contain %s:\n%s", want, out)
		}
	}
	// The oblivious extra atom R(a, null) must NOT be in the FIFO
	// restricted result.
	if strings.Contains(out, "R(a,_:") {
		t.Errorf("unexpected invented R atom in restricted result:\n%s", out)
	}
}

func TestChaseCoreFlag(t *testing.T) {
	bin := binary(t, "chase")
	// LIFO on Example 3.2 keeps a dominated invented atom; -core drops it.
	out, code := run(t, bin, "-strategy", "lifo", "-core", "testdata/example32.chase")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "core: 3 atoms (from 4") {
		t.Errorf("core minimisation missing:\n%s", out)
	}
	if strings.Contains(out, "R(a,_:") {
		t.Errorf("dominated atom must be gone:\n%s", out)
	}
	// -core on a diverging budgeted run errors.
	_, code = run(t, bin, "-core", "-max-steps", "20", "testdata/ladder.chase")
	if code != 3 {
		t.Errorf("-core on unfinished run: exit = %d, want 3", code)
	}
}

func TestBenchgenRoundTripsThroughTermcheck(t *testing.T) {
	gen := binary(t, "benchgen")
	check := binary(t, "termcheck")
	for _, tc := range []struct {
		family   string
		wantCode int
	}{
		{"existential-chain", 0},
		{"swap-intro", 0},
		{"linear-cycle", 1},
		{"sticky-relay", 1},
		{"stage-grid", 0},
	} {
		out, code := run(t, gen, "-family", tc.family, "-n", "3")
		if code != 0 {
			t.Fatalf("benchgen %s exit = %d\n%s", tc.family, code, out)
		}
		file := filepath.Join(t.TempDir(), tc.family+".chase")
		if err := os.WriteFile(file, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		vOut, vCode := run(t, check, file)
		if vCode != tc.wantCode {
			t.Errorf("%s: termcheck exit = %d, want %d\n%s", tc.family, vCode, tc.wantCode, vOut)
		}
	}
	if _, code := run(t, gen, "-family", "nope"); code != 3 {
		t.Error("unknown family must exit 3")
	}
}

func TestExperimentsSelectedSubset(t *testing.T) {
	bin := binary(t, "experiments")
	out, code := run(t, bin, "-only", "E4,E5", "-quick")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "## E4") || !strings.Contains(out, "## E5") {
		t.Errorf("selected experiments missing:\n%s", out)
	}
	if strings.Contains(out, "## E1") {
		t.Errorf("unselected experiment ran:\n%s", out)
	}
	// E5's verdict line is the Example 5.6 reproduction.
	if !strings.Contains(out, "treeified D_ac") || !strings.Contains(out, "diverges") {
		t.Errorf("E5 table incomplete:\n%s", out)
	}
}

// startTermcheckd launches the daemon, scrapes the resolved listen address
// from its banner line, and returns the process and base URL. The caller
// owns shutdown.
func startTermcheckd(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(binary(t, "termcheckd"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "termcheckd: listening on "); ok {
			go io.Copy(io.Discard, stdout) // keep the pipe drained
			return cmd, "http://" + addr
		}
	}
	t.Fatalf("termcheckd exited without a listening banner (scan err %v)", sc.Err())
	return nil, ""
}

// TestTermcheckdServes pins the daemon end to end: serve verdicts over
// HTTP that match the CLI's, report stats, shut down gracefully on SIGTERM
// with exit 0 and a final cache snapshot, and restart warm from that
// snapshot.
func TestTermcheckdServes(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "served.cache")
	cmd, base := startTermcheckd(t, "-cache-file", snap, "-cache-save-every", "0")

	src, err := os.ReadFile("testdata/conformance/swap-intro.chase")
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"program":%q}`, src)

	postDecide := func(url string) map[string]any {
		t.Helper()
		resp, err := http.Post(url+"/v1/decide", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(resp.Body)
			t.Fatalf("decide status %d: %s", resp.StatusCode, data)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// swap-intro terminates (the CLI exits 0 on it); the daemon must agree.
	if got := postDecide(base); got["verdict"] != "terminates" {
		t.Errorf("served verdict = %v, want terminates", got["verdict"])
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = http.Get(base + "/v1/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %v %v", err, resp)
	}
	var stats struct {
		Requests struct {
			Decide int64 `json:"decide"`
		} `json:"requests"`
		Cache chase.CacheStats `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests.Decide != 1 {
		t.Errorf("stats decide tally = %d, want 1", stats.Requests.Decide)
	}
	if stats.Cache.Entries == 0 {
		t.Errorf("stats cache entries = 0; the decide left nothing in the shared cache")
	}

	// Graceful shutdown: SIGTERM → drain, final snapshot, exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("termcheckd exit after SIGTERM: %v", err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no cache snapshot after graceful shutdown: %v", err)
	}

	// Restart from the snapshot: the same decide must now hit the restored
	// cache.
	cmd2, base2 := startTermcheckd(t, "-cache-file", snap, "-cache-save-every", "0")
	if got := postDecide(base2); got["verdict"] != "terminates" {
		t.Errorf("restarted verdict = %v, want terminates", got["verdict"])
	}
	resp, err = http.Get(base2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats2 struct {
		Cache chase.CacheStats `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats2)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Cache.Hits == 0 {
		t.Errorf("restarted daemon served the decide without hitting the restored cache: %+v", stats2.Cache)
	}
	cmd2.Process.Signal(syscall.SIGTERM)
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("second daemon exit: %v", err)
	}
}

// TestTermcheckdSIGTERMAtStartup pins the shutdown path's first instant: a
// SIGTERM sent as soon as the listening banner is read must take the
// graceful path — exit 0 with a loadable snapshot — not kill the daemon
// before its signal handler is installed.
func TestTermcheckdSIGTERMAtStartup(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "early.cache")
	cmd, _ := startTermcheckd(t, "-cache-file", snap, "-cache-save-every", "0")
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("termcheckd exit after an immediate SIGTERM: %v", err)
	}
	if _, _, err := chase.LoadCacheFile(snap); err != nil {
		t.Fatalf("no loadable snapshot after an immediate SIGTERM: %v", err)
	}
}

// TestTermcheckCacheSaveEveryKillMidRun pins termcheck's crash story
// under -cache-file: a run saves its snapshot once, at exit, through an
// atomic rename, so a kill -9 mid-run leaves the snapshot exactly as the
// run loaded it, cleanly loadable with its entries intact.
func TestTermcheckCacheSaveEveryKillMidRun(t *testing.T) {
	bin := binary(t, "termcheck")
	snap := filepath.Join(t.TempDir(), "midrun.cache")

	// Warm the snapshot with a fast run, so the slow run below starts with
	// restorable entries in its cache.
	if out, code := run(t, bin, "-cache-file", snap, "testdata/conformance/swap-intro.chase"); code != 0 {
		t.Fatalf("warming run exit = %d\n%s", code, out)
	}
	before, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("warming run left no snapshot: %v", err)
	}

	// The slow run: a ~10s ∀∃ sweep (stage-grid at n=13 explores 3^13
	// states), killed a moment after it starts.
	prog := filepath.Join(t.TempDir(), "grid.chase")
	grid, code := run(t, binary(t, "benchgen"), "-family", "stage-grid", "-n", "13")
	if code != 0 {
		t.Fatalf("benchgen exit = %d\n%s", code, grid)
	}
	if err := os.WriteFile(prog, []byte(grid), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-exists", "-exists-states", "100000000", "-exists-atoms", "100",
		"-cache-file", snap, prog)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatal("the slow run finished before the kill; the test needs a run still going")
	}

	// The kill -9 skipped the exit-time save; the snapshot must be the one
	// the run loaded, and it must restore cleanly, entries intact.
	after, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("snapshot gone after kill -9: %v", err)
	}
	if !bytes.Equal(after, before) {
		t.Error("a killed run changed the snapshot on disk")
	}
	c, rep, err := chase.LoadCacheFile(snap)
	if err != nil || rep.Truncated || rep.Skipped > 0 {
		t.Fatalf("snapshot after kill -9 did not load cleanly: %v %+v", err, rep)
	}
	if c.Stats().Entries == 0 {
		t.Error("snapshot after kill -9 restored no entries")
	}
}
