package main

// Smoke tests: every workload runs in process for a few blocks with no wrong
// verdict, every metric BENCHMARK.json declares is emitted with its unit,
// streams are a function of their seed, and the comparator's statistics
// match their definitions. Run with `go test ./...` from bench/.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"
)

func readTestBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := readBenchmark("..")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkloadsInProcess(t *testing.T) {
	b := readTestBenchmark(t)
	cat, err := newCatalog("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			o := runOptions{seed: 1, seconds: 0.4, trace: true, work: t.TempDir(), procs: 2, maxBlocks: 2}
			res, err := runWorkload(o, cat, wl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Wrong != 0 || res.Failed != 0 || !res.Correct {
				t.Fatalf("wrong=%d failed=%d: %v", res.Wrong, res.Failed, res.WrongList)
			}
			if res.Attempted == 0 {
				t.Fatal("no request attempted")
			}
			for _, part := range []struct {
				declared []benchMetric
				emitted  metrics
			}{{b.EndToEnd, res.E2E}, {b.PerLayer, res.PerLayer}} {
				if len(part.emitted) != len(part.declared) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(part.emitted), len(part.declared))
				}
				for _, m := range part.declared {
					got, ok := part.emitted[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s: emitted %+v (present %t), want unit %q", m.Name, got, ok, m.Unit)
					}
				}
			}
			for _, name := range []string{"throughput_rps", "latency_p50_ms", "latency_p99_ms", "setup_s", "peak_rss_mb"} {
				if res.E2E[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.E2E[name].Value)
				}
			}
			if len(res.spans) == 0 {
				t.Error("traced run recorded no span")
			}
		})
	}
}

func TestBenchmarkFileShape(t *testing.T) {
	b := readTestBenchmark(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	seen := map[string]bool{}
	for _, ms := range [][]benchMetric{b.EndToEnd, b.PerLayer} {
		for _, m := range ms {
			if !name.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or repeated", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	if len(wls) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, bench runs %v", wls, workloadNames)
	}
	for i := range wls {
		if wls[i] != workloadNames[i] {
			t.Errorf("BENCHMARK.json workloads %v, bench runs %v", wls, workloadNames)
		}
	}
}

func TestStreamIsAFunctionOfItsSeed(t *testing.T) {
	cat, err := newCatalog("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		h1, err := streamHash(wl, cat, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		h2, _ := streamHash(wl, cat, 7, 3)
		h3, _ := streamHash(wl, cat, 8, 3)
		if h1 != h2 {
			t.Errorf("%s: seed 7 gave two streams", wl)
		}
		if h1 == h3 {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", wl)
		}
	}
}

func TestRenameKeepsLabelsAndConstants(t *testing.T) {
	got := rename("P(c0).\ns1: P(X) -> Q'(X).\n", "r3")
	want := "P_r3(c0).\ns1: P_r3(X) -> Q'_r3(X).\n"
	if got != want {
		t.Errorf("rename = %q, want %q", got, want)
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		truth, got     string
		decided, wrong bool
	}{
		{"terminates", "terminates", true, false},
		{"terminates", "diverges", true, true},
		{"diverges", "unknown", false, false},
		{"found", "budget", false, false},
		{"found", "exhausted", true, true},
		{"", "found", true, false},
	} {
		d, w := judge(c.truth, c.got)
		if d != c.decided || w != c.wrong {
			t.Errorf("judge(%q, %q) = %t, %t; want %t, %t", c.truth, c.got, d, w, c.decided, c.wrong)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestMedianOfPartsLeavesOutAStall(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 100) // each part's p99 is 98
	}
	for i := 200; i < 220; i++ {
		xs[i] = 1000 // a stall in the second part
	}
	if got := percentile(xs, 0.99); got != 1000 {
		t.Fatalf("whole-run p99 = %v, want the stall's 1000", got)
	}
	if got := medianOfParts(xs, 5, 0.99); got != 98 {
		t.Errorf("medianOfParts = %v, want 98", got)
	}
}

func TestJudgeChange(t *testing.T) {
	a := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{100, 100, 101, 99, 100}, "lower", "same"},
		{[]float64{130, 131, 129, 130, 130}, "lower", "worse"},
		{[]float64{130, 131, 129, 130, 130}, "higher", "improved"},
		{[]float64{60, 100, 140, 100, 100}, "lower", "unresolved"},
	} {
		if got := judgeChange(a, c.b, c.better, 0.1).verdict; got != c.want {
			t.Errorf("judgeChange(%v, %s) = %s, want %s", c.b, c.better, got, c.want)
		}
	}
}

func TestJudgeHealth(t *testing.T) {
	clean := &workloadRuns{attempted: 1000}
	for _, c := range []struct {
		name      string
		a, b      *workloadRuns
		wantWorse bool
	}{
		{"both clean", clean, clean, false},
		{"B answers wrongly", clean, &workloadRuns{attempted: 1000, wrongRuns: 1}, true},
		{"B fails where A did not", clean, &workloadRuns{attempted: 1000, failed: 1}, true},
		{"B fails less than A", &workloadRuns{attempted: 1000, failed: 4}, &workloadRuns{attempted: 1000, failed: 2}, false},
	} {
		if got := judgeHealth(c.a, c.b) != ""; got != c.wantWorse {
			t.Errorf("%s: judgeHealth worse = %t, want %t", c.name, got, c.wantWorse)
		}
	}
}

func TestSameStreams(t *testing.T) {
	a := &workloadRuns{streams: map[int64]string{1: "x", 2: "y"}}
	for _, c := range []struct {
		b      map[int64]string
		wantOK bool
	}{
		{map[int64]string{1: "x", 3: "z"}, true},
		{map[int64]string{1: "x", 2: "other"}, false},
		{map[int64]string{3: "z"}, false},
	} {
		if err := sameStreams(a, &workloadRuns{streams: c.b}); (err == nil) != c.wantOK {
			t.Errorf("sameStreams(%v, %v) = %v, want ok %t", a.streams, c.b, err, c.wantOK)
		}
	}
}

func TestCatalogNeedsEveryPinnedProgram(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "testdata", "conformance")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join("..", "testdata", "conformance", "intro.chase"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "intro.chase"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newCatalog(root); err == nil {
		t.Fatal("newCatalog accepted a conformance corpus that lacks pinned programs")
	}
}

func TestDiedOfSIGTERM(t *testing.T) {
	cmd := exec.Command("sleep", "10")
	if err := cmd.Start(); err != nil {
		t.Skip(err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := fmt.Errorf("stop: %w", cmd.Wait())
	if !diedOfSIGTERM(err) {
		t.Errorf("diedOfSIGTERM(%v) = false", err)
	}
	if diedOfSIGTERM(errors.New("exit status 3")) {
		t.Error("a plain error counted as death by SIGTERM")
	}
}

func TestScaleLatenciesReadsTheProbesAroundEachRequest(t *testing.T) {
	t0 := time.Now()
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	ref := ms(referenceProbe)
	sp := &speedMeter{readings: []probeReading{
		{at(0), ref}, {at(1), ref}, // reference speed
		{at(10), 2 * ref}, {at(11), 2 * ref}, {at(12), 2 * ref}, // half speed
	}}
	if got := sp.slowdown(at(20), at(21)); got != 0 {
		t.Errorf("slowdown with no probe = %v, want 0", got)
	}
	outs := []outcome{
		{start: at(0.5), latency: 2 * time.Millisecond, status: http.StatusOK},
		{start: at(5), latency: time.Second, status: http.StatusInternalServerError}, // failed: skipped
		{start: at(11), latency: 4 * time.Millisecond, status: http.StatusOK},
	}
	scaled, share, err := sp.scaleLatencies(outs)
	if err != nil {
		t.Fatal(err)
	}
	if len(scaled) != 2 || scaled[0] != 2 || scaled[1] != 2 {
		t.Errorf("scaled latencies %v, want [2 2]", scaled)
	}
	if want := 4.0 / 6; math.Abs(share-want) > 1e-12 {
		t.Errorf("share %v, want %v", share, want)
	}
	outs = append(outs, outcome{start: at(30), latency: time.Millisecond, status: http.StatusOK})
	if _, _, err := sp.scaleLatencies(outs); err == nil {
		t.Error("a request with no probe within the window was scaled")
	}
}

func TestSpeedMeter(t *testing.T) {
	sp, err := newSpeedMeter()
	if err != nil {
		t.Fatal(err)
	}
	defer sp.close()
	if _, err := sp.read(); err == nil {
		t.Error("read before any probe succeeded")
	}
	for i := 0; i < 3; i++ {
		sp.probe()
	}
	h, err := sp.read()
	if err != nil {
		t.Fatal(err)
	}
	if h.Probes != 3 || h.ProbeMS <= 0 || h.Slowdown <= 0 || len(h.PartsMS) != len(probeParts) {
		t.Errorf("host reading %+v", h)
	}
	for _, p := range h.PartsMS {
		if p <= 0 {
			t.Errorf("a probe part took no time: %+v", h.PartsMS)
		}
	}
	if sp.pausedFor() <= 0 {
		t.Error("probes held the gate for no time")
	}
}

func TestResultsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	res := &workloadResult{Workload: "first-contact", Correct: true, Attempted: 1,
		E2E: metrics{"latency_p50_ms": {Value: 1.5, Unit: "ms"}}, PerLayer: metrics{}}
	prov := provenance{Seed: 3, StreamHashes: map[string]string{"first-contact": "h"}}
	if err := writeResults(dir, prov, []*workloadResult{res}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		t.Fatal(err)
	}
	runs, n, err := loadRuns(dir)
	if err != nil || n != 1 {
		t.Fatalf("loadRuns = %v, %d, %v", runs, n, err)
	}
	r := runs["first-contact"]
	if r.values["latency_p50_ms"][0] != 1.5 || r.attempted != 1 || r.streams[3] != "h" {
		t.Errorf("loadRuns read %+v", r)
	}
}
