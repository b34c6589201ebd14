package sticky

import (
	"fmt"
	"testing"

	"airct/internal/workload"
)

// BenchmarkStickyDecide measures a cold Büchi decision (no cache): marking
// lookup, machine compilation, and the exploration of every component up
// to the first witness, on the sticky families at n = 4, 8, 12 and the
// paper's sticky example.
func BenchmarkStickyDecide(b *testing.B) {
	var fams []workload.Labeled
	for _, n := range []int{4, 8, 12} {
		fams = append(fams,
			workload.LinearCycle(n), workload.StickyRelay(n), workload.StickyJoin(n),
			workload.ExistentialChain(n), workload.SwapIntro(n))
	}
	for _, l := range workload.Corpus() {
		if l.Name == "paper-sticky" {
			fams = append(fams, l)
		}
	}
	for _, fam := range fams {
		if !fam.Set.IsSticky() {
			b.Fatalf("%s is not sticky", fam.Name)
		}
		b.Run(fam.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := Decide(fam.Set, DecideOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if v.Terminates != fam.Terminates {
					b.Fatal(fmt.Sprintf("%s: Terminates = %v", fam.Name, v.Terminates))
				}
			}
		})
	}
}
