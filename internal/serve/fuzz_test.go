package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeRequest: any request body goes through decodeJSON into both
// request types, then parseProgram, without a panic. A body either fails
// with an error or yields a program with at least one dependency.
// Seeded from the conformance corpus.
func FuzzDecodeRequest(f *testing.F) {
	files, err := filepath.Glob("../../testdata/conformance/*.chase")
	if err != nil || len(files) == 0 {
		f.Fatalf("no conformance programs to seed from: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		for _, req := range []any{
			DecideRequest{Program: string(src), Portfolio: true, GuardedBudget: 500},
			ExistsRequest{Program: string(src), MaxStates: 100, MaxAtoms: 20},
		} {
			body, err := json.Marshal(req)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var decide DecideRequest
		var exists ExistsRequest
		for _, tc := range []struct {
			req     any
			program *string
		}{{&decide, &decide.Program}, {&exists, &exists.Program}} {
			r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
			if err := decodeJSON(httptest.NewRecorder(), r, tc.req); err != nil {
				continue
			}
			prog, err := parseProgram(*tc.program)
			if err == nil && prog.TGDs.Len() == 0 && !prog.TGDs.HasEGDs() {
				t.Fatalf("parseProgram accepted a program without dependencies: %q", *tc.program)
			}
		}
	})
}
