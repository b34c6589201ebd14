package tgds

import (
	"testing"

	"airct/internal/logic"
)

func TestIsFull(t *testing.T) {
	full := MustNew("", []logic.Atom{atom("E", "X", "Y"), atom("E", "Y", "Z")},
		[]logic.Atom{atom("E", "X", "Z")})
	if !MustSet(full).IsFull() {
		t.Error("transitive closure is full")
	}
	notFull := MustNew("", []logic.Atom{atom("S", "X")}, []logic.Atom{atom("R", "X", "Y")})
	if MustSet(notFull).IsFull() {
		t.Error("∃Y makes the rule non-full")
	}
	mixed := MustSet(full, notFull)
	if mixed.IsFull() {
		t.Error("mixed set is not full")
	}
}

func TestFrontierGuarded(t *testing.T) {
	// Transitive closure: frontier = {X, Z}; no body atom has both X and Z
	// … wait: E(X,Y) has X, E(Y,Z) has Z, neither has both. Not FG.
	tc := MustNew("", []logic.Atom{atom("E", "X", "Y"), atom("E", "Y", "Z")},
		[]logic.Atom{atom("E", "X", "Z")})
	if tc.IsFrontierGuarded() {
		t.Error("transitive closure is not frontier-guarded")
	}
	// R(X,Y), P(Y,Z) → S(Y): frontier {Y}; both atoms contain Y: FG but
	// not guarded (no atom has X,Y,Z).
	fg := MustNew("", []logic.Atom{atom("R", "X", "Y"), atom("P", "Y", "Z")},
		[]logic.Atom{atom("S", "Y")})
	if !fg.IsFrontierGuarded() {
		t.Error("frontier {Y} is covered by R(X,Y)")
	}
	if MustSet(fg).IsGuarded() {
		t.Error("corpus error: should not be guarded")
	}
	// Guarded implies frontier-guarded.
	g := MustNew("", []logic.Atom{atom("G", "X", "Y"), atom("S", "X")},
		[]logic.Atom{atom("H", "X")})
	if !MustSet(g).IsGuarded() || !g.IsFrontierGuarded() {
		t.Error("guarded ⊆ frontier-guarded")
	}
	set := MustSet(fg)
	if !set.IsFrontierGuarded() {
		t.Error("set-level FG")
	}
	multi := MustSet(MustNew("", []logic.Atom{atom("R", "X", "Y")},
		[]logic.Atom{atom("S", "X"), atom("T", "Y")}))
	if multi.IsFrontierGuarded() {
		t.Error("multi-head sets are outside the class")
	}
}
