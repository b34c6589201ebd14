package guarded

import (
	"testing"

	"airct/internal/workload"
)

// BenchmarkGenerateSeeds measures the whole default seed pool (256 seeds):
// the canonical bases and, for each base, a (600, 6) real-oblivious-chase
// fragment and its treeification, then one Database per pool seed. With
// the fragments on the ID plane, their builds still dominate: about three
// quarters of a CPU profile, of which compiling the set once per base is
// a sixth of the profile; the Databases take about an eighth and Treeify
// about a twentieth.
func BenchmarkGenerateSeeds(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		for _, fam := range []workload.Labeled{workload.SwapIntro(n), workload.GuardedLadder(n)} {
			b.Run(fam.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if len(GenerateSeeds(fam.Set, 256)) == 0 {
						b.Fatal("empty seed pool")
					}
				}
			})
		}
	}
}
