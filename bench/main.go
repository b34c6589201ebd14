// Command bench is the repository's benchmark: termcheckd under three traffic
// mixes, end-to-end verdict latency and throughput, and per-layer
// attribution from a separate traced run. See bench/README.md.
//
// Run from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash bench/run.sh run [-seed N] [-out DIR]
//	bash bench/run.sh compare A B
//
// The first form runs one workload and prints one JSON line with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). run
// runs every workload with tracing for BENCHMARK.json's run_seconds and
// writes DIR/results.json and DIR/trace.json. compare judges two sets of
// results against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const resultsSchema = "airct-bench/v5"

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return cmdRun(args[1:])
		case "compare":
			return cmdCompare(args[1:])
		}
	}
	return cmdWorkload(args)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// findRoot returns the repository root: the working directory or its
// parent, whichever holds cmd/termcheckd.
func findRoot() (string, error) {
	for _, c := range []string{".", ".."} {
		if fi, err := os.Stat(filepath.Join(c, "cmd", "termcheckd")); err == nil && fi.IsDir() {
			if _, err := os.Stat(filepath.Join(c, "go.mod")); err == nil {
				return filepath.Abs(c)
			}
		}
	}
	return "", errors.New("no repository root with go.mod and cmd/termcheckd found; run from the repository root")
}

// benchmarkFile is the part of BENCHMARK.json the bench reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmark(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// provenance records where and how a results file was measured.
type provenance struct {
	HostCPUs         int     `json:"host_cpus"`
	Label            string  `json:"label"`
	BenchGOMAXPROCS  int     `json:"bench_gomaxprocs"`
	DaemonGOMAXPROCS int     `json:"daemon_gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	CPUModel         string  `json:"cpu_model"`
	GitRev           string  `json:"git_rev"`
	Seed             int64   `json:"seed"`
	RunSeconds       float64 `json:"run_seconds"`
	TraceSeconds     float64 `json:"trace_seconds"`
	SetupBoots       int     `json:"setup_boots"`
	Time             string  `json:"time_utc"`
	// StreamHashes digests each workload's stream at Seed (streamHashes).
	StreamHashes map[string]string `json:"stream_hashes"`
}

func newProvenance(root string, o runOptions, hashes map[string]string) provenance {
	p := provenance{
		StreamHashes:     hashes,
		HostCPUs:         runtime.NumCPU(),
		Label:            "multi-CPU",
		BenchGOMAXPROCS:  runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS: o.procs,
		GoVersion:        runtime.Version(),
		CPUModel:         cpuModel(),
		GitRev:           "unknown (not a git checkout)",
		Seed:             o.seed,
		RunSeconds:       o.seconds,
		SetupBoots:       setupBoots,
		Time:             time.Now().UTC().Format(time.RFC3339),
	}
	if o.trace {
		p.TraceSeconds = o.traceDuration().Seconds()
	}
	if p.HostCPUs == 1 {
		p.Label = "single-CPU: not a scaling result"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		p.GitRev = strings.TrimSpace(string(out))
	}
	return p
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultsFile is DIR/results.json.
type resultsFile struct {
	Schema     string            `json:"schema"`
	Provenance provenance        `json:"provenance"`
	Workloads  []*workloadResult `json:"workloads"`
}

// setUp resolves the root and the run length, caps GOMAXPROCS at
// min(nproc, 2), builds the daemon and loads the catalog.
func setUp(o *runOptions) (string, *catalog, error) {
	root, err := findRoot()
	if err != nil {
		return "", nil, err
	}
	if o.seconds <= 0 {
		b, err := readBenchmark(root)
		if err != nil {
			return "", nil, err
		}
		o.seconds = float64(b.RunSeconds)
	}
	o.procs = min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(o.procs)
	o.work = filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return "", nil, err
	}
	if o.bin, err = buildDaemon(root, filepath.Join(root, ".bench_build")); err != nil {
		return "", nil, err
	}
	cat, err := newCatalog(root)
	return root, cat, err
}

// writeResults writes results.json, and trace.json when any workload was
// traced, into dir.
func writeResults(dir string, prov provenance, results []*workloadResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), resultsFile{Schema: resultsSchema, Provenance: prov, Workloads: results}); err != nil {
		return err
	}
	var traces []workloadTrace
	for _, r := range results {
		if r.spans != nil {
			traces = append(traces, workloadTrace{Workload: r.Workload, Seed: prov.Seed, Spans: r.spans})
		}
	}
	if traces == nil {
		return nil
	}
	return writeJSON(filepath.Join(dir, "trace.json"), traces)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// cmdWorkload runs one workload and prints the one-line result.
func cmdWorkload(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 0, "measured seconds (0: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "0: print the end-to-end metrics; 1: add the traced run and print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	}
	o := runOptions{seed: *seed, seconds: *seconds, trace: *trace == 1, minSamples: minSamples}
	root, cat, err := setUp(&o)
	if err != nil {
		return fail(err)
	}
	res, err := runWorkload(o, cat, *wl)
	if err != nil {
		return fail(err)
	}
	hashes, err := streamHashes(cat, o.seed, []string{*wl})
	if err != nil {
		return fail(err)
	}
	dir := filepath.Join(root, ".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d", *wl, *seed, *trace))
	if err := writeResults(dir, newProvenance(root, o, hashes), []*workloadResult{res}); err != nil {
		return fail(err)
	}
	printSummary(os.Stderr, res)
	chosen := res.E2E
	if o.trace {
		chosen = res.PerLayer
	}
	line := map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": contractMetrics(chosen)}
	raw, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(raw))
	if !res.healthy() {
		return 1
	}
	return 0
}

// contractMetrics drops the sample counts: the one-line result carries
// value and unit only.
func contractMetrics(m metrics) map[string]metric {
	out := make(map[string]metric, len(m))
	for k, v := range m {
		out[k] = metric{Value: v.Value, Unit: v.Unit}
	}
	return out
}

// cmdRun runs every workload, traced, and writes the results directory.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	out := fs.String("out", "", "results directory (default .bench_build/results/seedN)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := runOptions{seed: *seed, trace: true, minSamples: minSamples}
	root, cat, err := setUp(&o)
	if err != nil {
		return fail(err)
	}
	var results []*workloadResult
	healthy := true
	for _, wl := range workloadNames {
		res, err := runWorkload(o, cat, wl)
		if err != nil {
			return fail(err)
		}
		printSummary(os.Stdout, res)
		healthy = healthy && res.healthy()
		results = append(results, res)
	}
	hashes, err := streamHashes(cat, o.seed, workloadNames)
	if err != nil {
		return fail(err)
	}
	dir := *out
	if dir == "" {
		dir = filepath.Join(root, ".bench_build", "results", fmt.Sprintf("seed%d", *seed))
	}
	prov := newProvenance(root, o, hashes)
	if err := writeResults(dir, prov, results); err != nil {
		return fail(err)
	}
	fmt.Printf("host: %d CPUs (%s), %s; results in %s\n", prov.HostCPUs, prov.Label, prov.GoVersion, dir)
	if !healthy {
		fmt.Fprintln(os.Stderr, "bench: wrong verdicts or failed requests; see results.json")
		return 1
	}
	return 0
}

// printSummary prints a workload's metrics by name with their units.
func printSummary(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "== %s: attempted=%d failed=%d wrong_verdicts=%d measured=%.1fs\n", r.Workload, r.Attempted, r.Failed, r.Wrong, r.MeasuredS)
	for _, wr := range r.WrongList {
		fmt.Fprintf(w, "   WRONG %s\n", wr)
	}
	for _, part := range []metrics{r.E2E, r.PerLayer} {
		names := make([]string, 0, len(part))
		for k := range part {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := part[k]
			fmt.Fprintf(w, "   %-36s %14.4f %-6s n=%d", k, m.Value, m.Unit, m.Samples)
			if raw, ok := r.E2ERaw[k]; ok && raw.Value != m.Value {
				fmt.Fprintf(w, " (as measured %.4f)", raw.Value)
			}
			fmt.Fprintln(w)
		}
	}
}
