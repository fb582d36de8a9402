package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file is the expression language shared by σ (filter), π/derive
// and γ (group-by) operators: a lexer, a precedence-climbing parser
// producing a small AST, a type checker, and a canonical printer. Every
// failure is a *PosError carrying the zero-based byte offset of the
// offending token, so earld can answer malformed expressions with a 400
// that points at the problem instead of a bare 500.

// PosError is a positioned expression error. Pos is the zero-based byte
// offset into Src of the token the message is about.
type PosError struct {
	Src string
	Pos int
	Msg string
}

func (e *PosError) Error() string {
	return fmt.Sprintf("%s at column %d in %q", e.Msg, e.Pos+1, e.Src)
}

func posErrf(src string, pos int, format string, args ...any) error {
	return &PosError{Src: src, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// kind is an expression's static type. Booleans are materialized as
// 0/1 float64 vectors at execution time, but the checker keeps the
// three kinds apart so "v + (key == \"a\")" is rejected up front.
type kind uint8

const (
	kNum kind = iota
	kBool
	kStr
)

func (k kind) String() string {
	switch k {
	case kNum:
		return "number"
	case kBool:
		return "boolean"
	default:
		return "string"
	}
}

// tokKind enumerates the lexer's token types; binary-operator tokens
// double as the AST's operator tags.
type tokKind uint8

const (
	tEOF tokKind = iota
	tNum
	tStr
	tIdent
	tLParen
	tRParen
	tComma
	tPlus
	tMinus
	tStar
	tSlash
	tLt
	tLe
	tGt
	tGe
	tEq
	tNe
	tAndAnd
	tOrOr
	tBang
)

// opText renders an operator token for canonical printing and error
// messages.
func opText(k tokKind) string {
	switch k {
	case tPlus:
		return "+"
	case tMinus:
		return "-"
	case tStar:
		return "*"
	case tSlash:
		return "/"
	case tLt:
		return "<"
	case tLe:
		return "<="
	case tGt:
		return ">"
	case tGe:
		return ">="
	case tEq:
		return "=="
	case tNe:
		return "!="
	case tAndAnd:
		return "&&"
	case tOrOr:
		return "||"
	case tBang:
		return "!"
	default:
		return "?"
	}
}

type token struct {
	kind tokKind
	pos  int
	num  float64 // tNum
	str  string  // tStr literal value / tIdent name
}

func (t token) desc() string {
	switch t.kind {
	case tEOF:
		return "end of expression"
	case tNum:
		return "number " + strconv.FormatFloat(t.num, 'g', -1, 64)
	case tStr:
		return "string " + strconv.Quote(t.str)
	case tIdent:
		return fmt.Sprintf("identifier %q", t.str)
	case tLParen:
		return `"("`
	case tRParen:
		return `")"`
	case tComma:
		return `","`
	default:
		return strconv.Quote(opText(t.kind))
	}
}

// lex tokenizes src. Numbers use strconv.ParseFloat syntax (no sign —
// unary minus is an operator); strings are double-quoted with \" and
// \\ escapes.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c >= '0' && c <= '9' || c == '.':
			start := i
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				i++
			}
			if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
				j := i + 1
				if j < len(src) && (src[j] == '+' || src[j] == '-') {
					j++
				}
				if j < len(src) && src[j] >= '0' && src[j] <= '9' {
					for j < len(src) && src[j] >= '0' && src[j] <= '9' {
						j++
					}
					i = j
				}
			}
			v, err := strconv.ParseFloat(src[start:i], 64)
			if err != nil {
				return nil, posErrf(src, start, "bad number %q", src[start:i])
			}
			toks = append(toks, token{kind: tNum, pos: start, num: v})
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
			start := i
			for i < len(src) && (src[i] >= 'a' && src[i] <= 'z' || src[i] >= 'A' && src[i] <= 'Z' ||
				src[i] >= '0' && src[i] <= '9' || src[i] == '_') {
				i++
			}
			toks = append(toks, token{kind: tIdent, pos: start, str: src[start:i]})
		case c == '"':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == '\\' && i+1 < len(src) && (src[i+1] == '"' || src[i+1] == '\\') {
					sb.WriteByte(src[i+1])
					i += 2
					continue
				}
				if src[i] == '"' {
					i++
					closed = true
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, posErrf(src, start, "unterminated string")
			}
			toks = append(toks, token{kind: tStr, pos: start, str: sb.String()})
		default:
			two := byte(0)
			if i+1 < len(src) {
				two = src[i+1]
			}
			kind := tEOF
			width := 1
			switch {
			case c == '&' && two == '&':
				kind, width = tAndAnd, 2
			case c == '|' && two == '|':
				kind, width = tOrOr, 2
			case c == '<' && two == '=':
				kind, width = tLe, 2
			case c == '>' && two == '=':
				kind, width = tGe, 2
			case c == '=' && two == '=':
				kind, width = tEq, 2
			case c == '!' && two == '=':
				kind, width = tNe, 2
			case c == '<':
				kind = tLt
			case c == '>':
				kind = tGt
			case c == '!':
				kind = tBang
			case c == '+':
				kind = tPlus
			case c == '-':
				kind = tMinus
			case c == '*':
				kind = tStar
			case c == '/':
				kind = tSlash
			case c == '(':
				kind = tLParen
			case c == ')':
				kind = tRParen
			case c == ',':
				kind = tComma
			default:
				return nil, posErrf(src, i, "unexpected character %q", string(c))
			}
			toks = append(toks, token{kind: kind, pos: i})
			i += width
		}
	}
	toks = append(toks, token{kind: tEOF, pos: len(src)})
	return toks, nil
}

// The AST. Nodes remember the source position of their defining token
// for checker errors.
type node interface{ pos() int }

type numLit struct {
	p int
	v float64
}

type strLit struct {
	p int
	s string
}

// varRef is a column reference with the canonical name already applied:
// "v" (the record's numeric value; "value" is an accepted spelling) or
// "key" (the record's group key, FormatKV input only).
type varRef struct {
	p    int
	name string
}

type unaryOp struct {
	p  int
	op tokKind // tMinus or tBang
	x  node
}

type binOp struct {
	p    int
	op   tokKind
	x, y node
}

type callOp struct {
	p    int
	fn   string
	args []node
}

func (n *numLit) pos() int  { return n.p }
func (n *strLit) pos() int  { return n.p }
func (n *varRef) pos() int  { return n.p }
func (n *unaryOp) pos() int { return n.p }
func (n *binOp) pos() int   { return n.p }
func (n *callOp) pos() int  { return n.p }

// fnSpec is one builtin numeric function. All builtins take and return
// numbers; f1/f2 select by arity.
type fnSpec struct {
	arity int
	f1    func(float64) float64
	f2    func(float64, float64) float64
}

var funcs = map[string]fnSpec{
	"abs":   {arity: 1, f1: math.Abs},
	"sqrt":  {arity: 1, f1: math.Sqrt},
	"log":   {arity: 1, f1: math.Log},
	"exp":   {arity: 1, f1: math.Exp},
	"floor": {arity: 1, f1: math.Floor},
	"ceil":  {arity: 1, f1: math.Ceil},
	"min":   {arity: 2, f2: math.Min},
	"max":   {arity: 2, f2: math.Max},
}

// prec returns a binary operator's precedence (0 = not binary). All
// binary operators are left-associative; comparisons do not chain (the
// checker rejects "a < b < c" as a boolean comparand).
func prec(k tokKind) int {
	switch k {
	case tOrOr:
		return 1
	case tAndAnd:
		return 2
	case tLt, tLe, tGt, tGe, tEq, tNe:
		return 3
	case tPlus, tMinus:
		return 4
	case tStar, tSlash:
		return 5
	}
	return 0
}

type parser struct {
	src  string
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

// parseExpr parses one complete expression.
func parseExpr(src string) (node, error) {
	if strings.TrimSpace(src) == "" {
		return nil, posErrf(src, 0, "empty expression")
	}
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	n, err := p.parseBin(1)
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != tEOF {
		return nil, posErrf(src, t.pos, "unexpected %s", t.desc())
	}
	return n, nil
}

func (p *parser) parseBin(minPrec int) (node, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		pr := prec(t.kind)
		if pr == 0 || pr < minPrec {
			return x, nil
		}
		p.i++
		y, err := p.parseBin(pr + 1)
		if err != nil {
			return nil, err
		}
		x = &binOp{p: t.pos, op: t.kind, x: x, y: y}
	}
}

func (p *parser) parseUnary() (node, error) {
	t := p.peek()
	if t.kind == tMinus || t.kind == tBang {
		p.i++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryOp{p: t.pos, op: t.kind, x: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (node, error) {
	t := p.next()
	switch t.kind {
	case tNum:
		return &numLit{p: t.pos, v: t.num}, nil
	case tStr:
		return &strLit{p: t.pos, s: t.str}, nil
	case tIdent:
		if p.peek().kind == tLParen {
			p.i++ // consume "("
			spec, ok := funcs[t.str]
			if !ok {
				return nil, posErrf(p.src, t.pos, "unknown function %q (have abs, sqrt, log, exp, floor, ceil, min, max)", t.str)
			}
			var args []node
			if p.peek().kind != tRParen {
				for {
					a, err := p.parseBin(1)
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.peek().kind != tComma {
						break
					}
					p.i++
				}
			}
			if c := p.peek(); c.kind != tRParen {
				return nil, posErrf(p.src, c.pos, "expected \")\" after arguments of %q, got %s", t.str, c.desc())
			}
			p.i++
			if len(args) != spec.arity {
				return nil, posErrf(p.src, t.pos, "%s takes %d argument(s), got %d", t.str, spec.arity, len(args))
			}
			return &callOp{p: t.pos, fn: t.str, args: args}, nil
		}
		switch t.str {
		case "v", "value":
			return &varRef{p: t.pos, name: "v"}, nil
		case "key":
			return &varRef{p: t.pos, name: "key"}, nil
		}
		return nil, posErrf(p.src, t.pos, "unknown identifier %q (columns are v, value, key)", t.str)
	case tLParen:
		n, err := p.parseBin(1)
		if err != nil {
			return nil, err
		}
		if c := p.peek(); c.kind != tRParen {
			return nil, posErrf(p.src, c.pos, "expected \")\", got %s", c.desc())
		}
		p.i++
		return n, nil
	default:
		return nil, posErrf(p.src, t.pos, "unexpected %s", t.desc())
	}
}

// checkKind type-checks n and returns its kind.
func checkKind(src string, n node) (kind, error) {
	switch n := n.(type) {
	case *numLit:
		return kNum, nil
	case *strLit:
		return kStr, nil
	case *varRef:
		if n.name == "key" {
			return kStr, nil
		}
		return kNum, nil
	case *unaryOp:
		k, err := checkKind(src, n.x)
		if err != nil {
			return 0, err
		}
		if n.op == tMinus {
			if k != kNum {
				return 0, posErrf(src, n.p, "operator \"-\" needs a number, got %s", k)
			}
			return kNum, nil
		}
		if k != kBool {
			return 0, posErrf(src, n.p, "operator \"!\" needs a boolean, got %s", k)
		}
		return kBool, nil
	case *binOp:
		kx, err := checkKind(src, n.x)
		if err != nil {
			return 0, err
		}
		ky, err := checkKind(src, n.y)
		if err != nil {
			return 0, err
		}
		switch n.op {
		case tPlus, tMinus, tStar, tSlash:
			if kx != kNum || ky != kNum {
				return 0, posErrf(src, n.p, "operator %q needs numbers, got %s and %s", opText(n.op), kx, ky)
			}
			return kNum, nil
		case tLt, tLe, tGt, tGe:
			if kx != kNum || ky != kNum {
				return 0, posErrf(src, n.p, "operator %q compares numbers, got %s and %s (comparisons do not chain)", opText(n.op), kx, ky)
			}
			return kBool, nil
		case tEq, tNe:
			if kx == kNum && ky == kNum {
				return kBool, nil
			}
			if kx == kStr && ky == kStr {
				return kBool, nil
			}
			return 0, posErrf(src, n.p, "operator %q needs two numbers or two strings, got %s and %s", opText(n.op), kx, ky)
		default: // tAndAnd, tOrOr
			if kx != kBool || ky != kBool {
				return 0, posErrf(src, n.p, "operator %q needs booleans, got %s and %s", opText(n.op), kx, ky)
			}
			return kBool, nil
		}
	case *callOp:
		for _, a := range n.args {
			k, err := checkKind(src, a)
			if err != nil {
				return 0, err
			}
			if k != kNum {
				return 0, posErrf(src, a.pos(), "%s takes number arguments, got %s", n.fn, k)
			}
		}
		return kNum, nil
	default:
		return 0, posErrf(src, 0, "internal: unknown node %T", n)
	}
}

// refs reports which columns n's subexpressions read: v and/or key. A
// subtree that reads neither is a constant.
func refs(n node) (v, key bool) {
	switch n := n.(type) {
	case *varRef:
		return n.name != "key", n.name == "key"
	case *unaryOp:
		return refs(n.x)
	case *binOp:
		xv, xk := refs(n.x)
		yv, yk := refs(n.y)
		return xv || yv, xk || yk
	case *callOp:
		for _, a := range n.args {
			av, ak := refs(a)
			v, key = v || av, key || ak
		}
	}
	return v, key
}

// printNode renders n canonically: single spaces around binary
// operators, minimal literal forms, parentheses only where precedence
// requires them (right operands of equal precedence keep parentheses,
// so the printed text re-parses to the identical tree). Two
// expressions that parse to the same tree print to the same text —
// the property serve's dedup/cache keys rely on.
func printNode(sb *strings.Builder, n node, parentPrec int, rightChild bool) {
	switch n := n.(type) {
	case *numLit:
		sb.WriteString(strconv.FormatFloat(n.v, 'g', -1, 64))
	case *strLit:
		quoteStr(sb, n.s)
	case *varRef:
		sb.WriteString(n.name)
	case *unaryOp:
		sb.WriteString(opText(n.op))
		switch n.x.(type) {
		case *numLit, *strLit, *varRef, *callOp:
			printNode(sb, n.x, 0, false)
		default:
			sb.WriteByte('(')
			printNode(sb, n.x, 0, false)
			sb.WriteByte(')')
		}
	case *binOp:
		pr := prec(n.op)
		paren := pr < parentPrec || (pr == parentPrec && rightChild)
		if paren {
			sb.WriteByte('(')
		}
		printNode(sb, n.x, pr, false)
		sb.WriteByte(' ')
		sb.WriteString(opText(n.op))
		sb.WriteByte(' ')
		printNode(sb, n.y, pr, true)
		if paren {
			sb.WriteByte(')')
		}
	case *callOp:
		sb.WriteString(n.fn)
		sb.WriteByte('(')
		for i, a := range n.args {
			if i > 0 {
				sb.WriteString(", ")
			}
			printNode(sb, a, 0, false)
		}
		sb.WriteByte(')')
	}
}

// quoteStr writes s in the lexer's own string syntax — only `\` and
// `"` are escaped, every other byte is raw — so canonical printing
// round-trips arbitrary key bytes exactly (strconv.Quote's \xNN forms
// would not re-lex).
func quoteStr(sb *strings.Builder, s string) {
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' || s[i] == '"' {
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
	sb.WriteByte('"')
}

func printExpr(n node) string {
	var sb strings.Builder
	printNode(&sb, n, 0, false)
	return sb.String()
}
