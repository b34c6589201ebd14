package guarded

// BenchmarkDecideCached measures the cross-run chase cache on the
// repeated-seed serving workload (workload.RepeatedDecideRequests): the
// same guarded, non-weakly-acyclic program decided again and again, as a
// termination service under load would. Three modes per family size:
//
//   - nocache: the pre-cache behaviour (DecideOptions.Cache nil);
//   - cold:    a fresh cache per decision — pays lookup misses and stores,
//     the worst case for the cache;
//   - warm:    one shared cache, warmed by a single decision before the
//     timer — every seed pool and seed outcome hits.
//
// The warm/cold time-to-verdict ratio is the headline recorded in
// BENCH_cache.json; TestQuickDecideWarmCacheEqualsCold and the conformance
// corpus pin that the three modes return bit-identical verdicts.

import (
	"fmt"
	"testing"

	"airct/internal/chase"
	"airct/internal/workload"
)

func BenchmarkDecideCached(b *testing.B) {
	for _, n := range []int{2, 3} {
		reqs := workload.RepeatedDecideRequests(n, 8)
		decide := func(b *testing.B, i int, cache *chase.Cache) {
			b.Helper()
			v, err := Decide(reqs[i%len(reqs)], DecideOptions{MaxSteps: 2000, Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			if !v.Terminates || v.Method != "seed-exhaustion" {
				b.Fatalf("unexpected verdict %+v", v)
			}
		}
		b.Run(fmt.Sprintf("swap-intro-%d/nocache", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decide(b, i, nil)
			}
		})
		b.Run(fmt.Sprintf("swap-intro-%d/cold", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decide(b, i, chase.NewCache())
			}
		})
		b.Run(fmt.Sprintf("swap-intro-%d/warm", n), func(b *testing.B) {
			b.ReportAllocs()
			cache := chase.NewCache()
			decide(b, 0, cache)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decide(b, i, cache)
			}
		})
	}
}
