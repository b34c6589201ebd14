// Package parser implements the library's concrete syntax for chase
// programs: a program is a list of statements, each terminated by a period.
//
//	# database facts: arguments are constants
//	R(a, b).
//	S(b, c).
//
//	# TGDs: upper-case-initial identifiers are variables; existential
//	# quantification is implicit in head variables absent from the body
//	R(X, Y), P(Y, Z) -> T(X, Y, W).
//	rule_name: T(X, Y, Z) -> S(Y, W).
//
//	# multi-head TGDs (outside the paper's single-head classes)
//	R(X, Y, Y) -> R(X, Z, Y), R(Z, Y, Y).
//
//	# EGDs: a head of the form X = Y (both variables must occur in the
//	# body) is an equality-generating dependency, e.g. a key constraint
//	key: R(X, Y), R(X, Z) -> Y = Z.
//
// Comments run from '#' or '%' or "//" to end of line. TGDs and EGDs are
// constant-free, matching the paper; a constant inside a rule is a parse
// error.
package parser

import (
	"fmt"
	"strings"
	"unicode"

	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// Program is the result of parsing: a database and a TGD set.
type Program struct {
	Database *instance.Database
	TGDs     *tgds.Set
}

// ParseError reports a syntax or semantic error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("parse error at line %d: %s", e.Line, e.Msg)
}

type tokenKind uint8

const (
	tokIdent tokenKind = iota
	tokLParen
	tokRParen
	tokComma
	tokArrow
	tokPeriod
	tokColon
	tokEq
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) errf(format string, args ...any) error {
	return &ParseError{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#' || c == '%':
			l.skipLine()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipLine()
		case c == '(':
			l.pos++
			return token{tokLParen, "(", l.line}, nil
		case c == ')':
			l.pos++
			return token{tokRParen, ")", l.line}, nil
		case c == ',':
			l.pos++
			return token{tokComma, ",", l.line}, nil
		case c == '.':
			l.pos++
			return token{tokPeriod, ".", l.line}, nil
		case c == ':':
			l.pos++
			return token{tokColon, ":", l.line}, nil
		case c == '=':
			l.pos++
			return token{tokEq, "=", l.line}, nil
		case c == '-':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
				l.pos += 2
				return token{tokArrow, "->", l.line}, nil
			}
			return token{}, l.errf("unexpected character %q", c)
		case isIdentStart(rune(c)):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			return token{tokIdent, l.src[start:l.pos], l.line}, nil
		default:
			return token{}, l.errf("unexpected character %q", c)
		}
	}
	return token{kind: tokEOF, line: l.line}, nil
}

func (l *lexer) skipLine() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || unicode.IsDigit(r)
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\''
}

// isVariableName reports whether an identifier denotes a variable inside a
// rule: it begins with an upper-case letter.
func isVariableName(s string) bool {
	for _, r := range s {
		return unicode.IsUpper(r)
	}
	return false
}

type parser struct {
	lex    *lexer
	tok    token
	peeked *token
}

func (p *parser) advance() error {
	if p.peeked != nil {
		p.tok = *p.peeked
		p.peeked = nil
		return nil
	}
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) peek() (token, error) {
	if p.peeked == nil {
		t, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.peeked = &t
	}
	return *p.peeked, nil
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.tok.line, Msg: fmt.Sprintf(format, args...)}
}

// rawAtom is an atom before variable/constant resolution.
type rawAtom struct {
	pred string
	args []string
	line int
}

// parseAtom parses IDENT '(' args ')' with the current token at IDENT.
func (p *parser) parseAtom() (rawAtom, error) {
	if p.tok.kind != tokIdent {
		return rawAtom{}, p.errf("expected predicate name, got %q", p.tok.text)
	}
	ra := rawAtom{pred: p.tok.text, line: p.tok.line}
	if err := p.advance(); err != nil {
		return rawAtom{}, err
	}
	if p.tok.kind != tokLParen {
		return rawAtom{}, p.errf("expected '(' after predicate %s", ra.pred)
	}
	for {
		if err := p.advance(); err != nil {
			return rawAtom{}, err
		}
		if p.tok.kind == tokRParen && len(ra.args) == 0 {
			break
		}
		if p.tok.kind != tokIdent {
			return rawAtom{}, p.errf("expected term, got %q", p.tok.text)
		}
		ra.args = append(ra.args, p.tok.text)
		if err := p.advance(); err != nil {
			return rawAtom{}, err
		}
		if p.tok.kind == tokRParen {
			break
		}
		if p.tok.kind != tokComma {
			return rawAtom{}, p.errf("expected ',' or ')', got %q", p.tok.text)
		}
	}
	if err := p.advance(); err != nil {
		return rawAtom{}, err
	}
	return ra, nil
}

// parseAtomList parses atom (',' atom)*.
func (p *parser) parseAtomList() ([]rawAtom, error) {
	var out []rawAtom
	for {
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		out = append(out, a)
		if p.tok.kind != tokComma {
			return out, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

func toRuleAtom(ra rawAtom) (logic.Atom, error) {
	args := make([]logic.Term, len(ra.args))
	for i, s := range ra.args {
		if !isVariableName(s) {
			return logic.Atom{}, &ParseError{Line: ra.line,
				Msg: fmt.Sprintf("constant %q inside a rule: TGDs are constant-free", s)}
		}
		args[i] = logic.Var(s)
	}
	return logic.NewAtom(logic.Pred(ra.pred, len(ra.args)), args...), nil
}

func toFactAtom(ra rawAtom) (logic.Atom, error) {
	args := make([]logic.Term, len(ra.args))
	for i, s := range ra.args {
		if isVariableName(s) {
			return logic.Atom{}, &ParseError{Line: ra.line,
				Msg: fmt.Sprintf("variable %q inside a fact", s)}
		}
		args[i] = logic.Const(s)
	}
	return logic.NewAtom(logic.Pred(ra.pred, len(ra.args)), args...), nil
}

// Parse parses a full program: facts and TGDs in any order.
func Parse(src string) (*Program, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	db := instance.NewDatabase()
	var rules []tgds.TGD
	var egds []tgds.EGD
	arities := make(map[string]int)

	checkArity := func(ra rawAtom) error {
		if len(ra.args) > instance.MaxArity {
			return &ParseError{Line: ra.line,
				Msg: fmt.Sprintf("predicate %s has %d arguments; at most %d are supported", ra.pred, len(ra.args), instance.MaxArity)}
		}
		if prev, ok := arities[ra.pred]; ok && prev != len(ra.args) {
			return &ParseError{Line: ra.line,
				Msg: fmt.Sprintf("predicate %s used with arity %d and %d", ra.pred, prev, len(ra.args))}
		}
		arities[ra.pred] = len(ra.args)
		return nil
	}

	for p.tok.kind != tokEOF {
		// Optional label: IDENT ':' before a rule.
		label := ""
		if p.tok.kind == tokIdent {
			if nxt, err := p.peek(); err != nil {
				return nil, err
			} else if nxt.kind == tokColon {
				label = p.tok.text
				if err := p.advance(); err != nil { // move to ':'
					return nil, err
				}
				if err := p.advance(); err != nil { // move past ':'
					return nil, err
				}
			}
		}
		atoms, err := p.parseAtomList()
		if err != nil {
			return nil, err
		}
		for _, ra := range atoms {
			if err := checkArity(ra); err != nil {
				return nil, err
			}
		}
		switch p.tok.kind {
		case tokPeriod:
			// Facts.
			if label != "" {
				return nil, p.errf("facts cannot be labeled")
			}
			for _, ra := range atoms {
				fact, err := toFactAtom(ra)
				if err != nil {
					return nil, err
				}
				if err := db.Add(fact); err != nil {
					return nil, &ParseError{Line: ra.line, Msg: err.Error()}
				}
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		case tokArrow:
			if err := p.advance(); err != nil {
				return nil, err
			}
			// An EGD head: IDENT '=' IDENT (both variables).
			if nxt, err := p.peek(); err != nil {
				return nil, err
			} else if p.tok.kind == tokIdent && nxt.kind == tokEq {
				egd, err := p.parseEGDHead(label, atoms)
				if err != nil {
					return nil, err
				}
				egds = append(egds, egd)
				continue
			}
			headRaw, err := p.parseAtomList()
			if err != nil {
				return nil, err
			}
			for _, ra := range headRaw {
				if err := checkArity(ra); err != nil {
					return nil, err
				}
			}
			if p.tok.kind != tokPeriod {
				return nil, p.errf("expected '.' after rule head, got %q", p.tok.text)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			body := make([]logic.Atom, len(atoms))
			for i, ra := range atoms {
				if body[i], err = toRuleAtom(ra); err != nil {
					return nil, err
				}
			}
			head := make([]logic.Atom, len(headRaw))
			for i, ra := range headRaw {
				if head[i], err = toRuleAtom(ra); err != nil {
					return nil, err
				}
			}
			rule, err := tgds.New(label, body, head)
			if err != nil {
				return nil, &ParseError{Line: atoms[0].line, Msg: err.Error()}
			}
			rules = append(rules, rule)
		default:
			return nil, p.errf("expected '.' or '->', got %q", p.tok.text)
		}
	}
	set, err := tgds.NewSetWithEGDs(rules, egds)
	if err != nil {
		return nil, err
	}
	return &Program{Database: db, TGDs: set}, nil
}

// parseEGDHead parses the head "X = Y" of an EGD whose body atoms were
// already consumed, with the current token at the left variable. EGD heads
// are a single equality: an equality cannot be mixed with head atoms.
func (p *parser) parseEGDHead(label string, body []rawAtom) (tgds.EGD, error) {
	xTok := p.tok
	if err := p.advance(); err != nil { // move to '='
		return tgds.EGD{}, err
	}
	if err := p.advance(); err != nil { // move past '='
		return tgds.EGD{}, err
	}
	if p.tok.kind != tokIdent {
		return tgds.EGD{}, p.errf("expected variable after '=', got %q", p.tok.text)
	}
	yTok := p.tok
	if err := p.advance(); err != nil {
		return tgds.EGD{}, err
	}
	if p.tok.kind == tokComma {
		return tgds.EGD{}, p.errf("an EGD head is a single equality; cannot mix it with further head atoms")
	}
	if p.tok.kind != tokPeriod {
		return tgds.EGD{}, p.errf("expected '.' after equality head, got %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return tgds.EGD{}, err
	}
	for _, tk := range []token{xTok, yTok} {
		if !isVariableName(tk.text) {
			return tgds.EGD{}, &ParseError{Line: tk.line,
				Msg: fmt.Sprintf("constant %q in an equality head: EGDs equate variables", tk.text)}
		}
	}
	bodyAtoms := make([]logic.Atom, len(body))
	for i, ra := range body {
		var err error
		if bodyAtoms[i], err = toRuleAtom(ra); err != nil {
			return tgds.EGD{}, err
		}
	}
	egd, err := tgds.NewEGD(label, bodyAtoms, logic.Var(xTok.text), logic.Var(yTok.text))
	if err != nil {
		return tgds.EGD{}, &ParseError{Line: body[0].line, Msg: err.Error()}
	}
	return egd, nil
}

// MustParse is Parse that panics on error; for tests and examples with
// literal programs.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// ParseTGDs parses a program consisting of rules only, rejecting facts.
func ParseTGDs(src string) (*tgds.Set, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if prog.Database.Len() != 0 {
		return nil, fmt.Errorf("parser: unexpected facts in TGD-only input")
	}
	return prog.TGDs, nil
}

// Print renders a program in the concrete syntax accepted by Parse.
func Print(prog *Program) string {
	var b strings.Builder
	for _, fact := range prog.Database.Atoms() {
		b.WriteString(fact.String())
		b.WriteString(".\n")
	}
	if prog.Database.Len() > 0 && (prog.TGDs.Len() > 0 || prog.TGDs.HasEGDs()) {
		b.WriteByte('\n')
	}
	for _, t := range prog.TGDs.TGDs {
		if t.Label != "" && !strings.HasPrefix(t.Label, "σ") {
			b.WriteString(t.Label)
			b.WriteString(": ")
		}
		b.WriteString(t.String())
		b.WriteString(".\n")
	}
	for _, e := range prog.TGDs.EGDs {
		if e.Label != "" && !strings.HasPrefix(e.Label, "ε") {
			b.WriteString(e.Label)
			b.WriteString(": ")
		}
		b.WriteString(e.String())
		b.WriteString(".\n")
	}
	return b.String()
}
