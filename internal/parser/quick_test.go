package parser

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomProgramText emits a syntactically valid random program.
func randomProgramText(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	nPreds := 2 + rng.Intn(3)
	arity := func(p int) int { return 1 + p%3 }
	consts := []string{"a", "b1", "c_2"}
	vars := []string{"X", "Y", "Zed"}
	for i := 0; i < 1+rng.Intn(4); i++ {
		p := rng.Intn(nPreds)
		args := make([]string, arity(p))
		for j := range args {
			args[j] = consts[rng.Intn(len(consts))]
		}
		fmt.Fprintf(&b, "Q%d(%s).\n", p, strings.Join(args, ","))
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		p, h := rng.Intn(nPreds), rng.Intn(nPreds)
		bodyArgs := make([]string, arity(p))
		for j := range bodyArgs {
			bodyArgs[j] = vars[rng.Intn(len(vars))]
		}
		headArgs := make([]string, arity(h))
		for j := range headArgs {
			// Mix body vars and fresh (existential) ones.
			if rng.Intn(3) == 0 {
				headArgs[j] = fmt.Sprintf("W%d", j)
			} else {
				headArgs[j] = bodyArgs[rng.Intn(len(bodyArgs))]
			}
		}
		fmt.Fprintf(&b, "Q%d(%s) -> Q%d(%s).\n", p, strings.Join(bodyArgs, ","), h, strings.Join(headArgs, ","))
	}
	return b.String()
}

// canonicalRule renames a rule's variables by first occurrence so that
// rules equal up to renaming get equal strings (tgds.NewSet's
// standardisation is not idempotent on names: "V10" sorts before "V9").
func canonicalRule(s string) string {
	var out strings.Builder
	names := map[string]string{}
	i := 0
	for i < len(s) {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			j := i
			for j < len(s) && (isAlnum(s[j]) || s[j] == '_') {
				j++
			}
			word := s[i:j]
			if canon, ok := names[word]; ok {
				out.WriteString(canon)
			} else {
				canon := fmt.Sprintf("v%d", len(names))
				names[word] = canon
				out.WriteString(canon)
			}
			i = j
			continue
		}
		out.WriteByte(c)
		i++
	}
	return out.String()
}

func isAlnum(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// Property: Print ∘ Parse is the identity up to variable renaming —
// parsing the printed form yields the same facts and rules structurally
// identical modulo the standardisation names.
func TestQuickPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		src := randomProgramText(seed % 10000)
		p1, err := Parse(src)
		if err != nil {
			return false
		}
		p2, err := Parse(Print(p1))
		if err != nil {
			return false
		}
		if p1.Database.Len() != p2.Database.Len() || p1.TGDs.Len() != p2.TGDs.Len() {
			return false
		}
		facts := p2.Database.Instance()
		for _, fct := range p1.Database.Atoms() {
			if !facts.Has(fct) {
				return false
			}
		}
		for i := range p1.TGDs.TGDs {
			if canonicalRule(p1.TGDs.TGDs[i].String()) != canonicalRule(p2.TGDs.TGDs[i].String()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: parsing never panics on arbitrary byte soup — errors only.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(junk string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
