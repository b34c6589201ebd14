// Termination survey: run the full analyzer over the labeled corpus and
// print a verdict table, including the paper's own examples — the
// "downstream user" view of the library's headline capability.
//
//	go run ./examples/termination
//
// Expect one row per corpus program (classes, ground truth, verdict,
// deciding method); every verdict must match its ground-truth column.
package main

import (
	"context"
	"fmt"
	"log"

	"airct/internal/core"
	"airct/internal/portfolio"
	"airct/internal/workload"
)

func main() {
	corpus := workload.Corpus()
	fmt.Printf("%-22s %-8s %-8s %-8s %-12s %-12s %s\n",
		"program", "guarded", "sticky", "linear", "ground truth", "verdict", "decided by")
	agree, verdicts := 0, 0
	for _, l := range corpus {
		rep, err := portfolio.Report(context.Background(), l.Set, portfolio.Options{})
		if err != nil {
			log.Fatalf("%s: %v", l.Name, err)
		}
		want := core.Diverges
		if l.Terminates {
			want = core.Terminates
		}
		decidedBy := "-"
		if len(rep.Reasons) > 0 {
			decidedBy = rep.Reasons[0]
		}
		if rep.Conclusion != core.Unknown {
			verdicts++
			if rep.Conclusion == want {
				agree++
			}
		}
		fmt.Printf("%-22s %-8v %-8v %-8v %-12v %-12v %.60s\n",
			l.Name, l.Guarded, l.Sticky, l.Linear, want, rep.Conclusion, decidedBy)
	}
	fmt.Printf("\n%d/%d verdicts, %d agree with ground truth\n", verdicts, len(corpus), agree)
	if agree != verdicts {
		log.Fatal("analyzer disagreed with ground truth!")
	}
}
