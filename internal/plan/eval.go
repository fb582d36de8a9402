package plan

// This file is the reference evaluator: a per-record tree walk with
// semantics the vectorized evaluator (vm.go) must match bit for bit
// (the fuzz target compares the two). Booleans are 0/1; && and ||
// evaluate BOTH operands — there is nothing a short circuit could
// skip: no side effects, and a non-finite operand is a value, not a
// failure, which is also why the vectorized side may narrow its
// selection instead; NaN behaves per IEEE 754 (comparisons involving
// NaN are false, arithmetic propagates it).

// evalNode evaluates a type-checked non-string subexpression for one
// record. String subexpressions only occur under ==/!= and are handled
// inline there.
func evalNode(n node, key string, v float64) float64 {
	switch n := n.(type) {
	case *numLit:
		return n.v
	case *varRef:
		return v // only "v" type-checks at a numeric position
	case *unaryOp:
		x := evalNode(n.x, key, v)
		if n.op == tMinus {
			return -x
		}
		return b2f(x == 0) // !
	case *binOp:
		if n.op == tEq || n.op == tNe {
			if _, ok := kindOfEq(n); ok {
				sx := evalStr(n.x, key)
				sy := evalStr(n.y, key)
				return b2f((sx == sy) == (n.op == tEq))
			}
		}
		x := evalNode(n.x, key, v)
		y := evalNode(n.y, key, v)
		switch n.op {
		case tPlus:
			return x + y
		case tMinus:
			return x - y
		case tStar:
			return x * y
		case tSlash:
			return x / y
		case tLt:
			return b2f(x < y)
		case tLe:
			return b2f(x <= y)
		case tGt:
			return b2f(x > y)
		case tGe:
			return b2f(x >= y)
		case tEq:
			return b2f(x == y)
		case tNe:
			return b2f(x != y)
		case tAndAnd:
			return b2f(x != 0 && y != 0)
		default: // tOrOr
			return b2f(x != 0 || y != 0)
		}
	case *callOp:
		spec := funcs[n.fn]
		if spec.arity == 1 {
			return spec.f1(evalNode(n.args[0], key, v))
		}
		return spec.f2(evalNode(n.args[0], key, v), evalNode(n.args[1], key, v))
	default:
		return 0 // unreachable on a checked AST
	}
}

// kindOfEq reports whether an ==/!= node compares strings (checked ASTs
// guarantee both operands agree).
func kindOfEq(n *binOp) (node, bool) {
	if isStrNode(n.x) || isStrNode(n.y) {
		return n.x, true
	}
	return nil, false
}

func isStrNode(n node) bool {
	switch n := n.(type) {
	case *strLit:
		return true
	case *varRef:
		return n.name == "key"
	}
	return false
}

// evalStr evaluates a string subexpression (a literal or the key
// column).
func evalStr(n node, key string) string {
	if s, ok := n.(*strLit); ok {
		return s.s
	}
	return key // *varRef "key" — the only other string node
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
