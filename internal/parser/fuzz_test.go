package parser

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse: parsing any text never panics, and Print of an accepted
// program parses again, to the same numbers of facts, TGDs and EGDs.
// Seeded from the conformance corpus.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("../../testdata/conformance/*.chase")
	if err != nil || len(files) == 0 {
		f.Fatalf("no conformance programs to seed from: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := Parse(src)
		if err != nil {
			return
		}
		printed := Print(p1)
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("Print of an accepted program does not parse: %v\n%s", err, printed)
		}
		if p2.Database.Len() != p1.Database.Len() || p2.TGDs.Len() != p1.TGDs.Len() || p2.TGDs.NumEGDs() != p1.TGDs.NumEGDs() {
			t.Fatalf("round trip changed the program: %d facts, %d TGDs, %d EGDs became %d, %d, %d\n%s",
				p1.Database.Len(), p1.TGDs.Len(), p1.TGDs.NumEGDs(),
				p2.Database.Len(), p2.TGDs.Len(), p2.TGDs.NumEGDs(), printed)
		}
	})
}
