package plan

// This file compiles a checked AST into the vectorized half of the
// expression language: a tiled selection-vector evaluator.
//
// Tiles. A batch is evaluated tile records at a time. Everything an
// expression touches besides the input columns — its registers, its
// selection vectors, one mask — is tile-sized and lives in the Scratch,
// so it stays L1-resident however long the batch is and a Scratch never
// grows with the data. Registers are positional: slot s of a register
// belongs to record s of the tile, which lets the value column stand in
// as an operand directly (a subslice of the input, never a copy).
// Constants are immediates of the instruction that consumes them
// (compare-with-constant, multiply-by-constant, ...); a subexpression
// that reads no column is folded at compile time through the reference
// walk itself, so folding cannot change a bit.
//
// Selection vectors. A boolean expression does not produce a 0/1
// vector; it narrows a selection — the ascending tile-local indices of
// the records still alive — with a branch-free compaction (store the
// index, advance the cursor by the 0/1 outcome). "x && y" narrows by x
// and evaluates y over x's survivors only; "x || y" and "!x" evaluate
// their operands over the incoming selection, mark the outcome in the
// mask and compact once. Numeric code under a comparison runs over the
// current selection only.
//
// Narrowing ≡ eager evaluation. The reference walk (eval.go) evaluates
// both operands of && and || for every record. Skipping y for a record
// x already rejected cannot be observed: expressions have no side
// effects, a non-finite intermediate is a value, not a failure, and
// every value a record's result depends on is computed with the same
// float64 operations in the same order as the reference. FuzzExprEval
// and the table tests hold the two bit-identical through both entry
// points (KeepBlock and Apply).
//
// Dictionary truth tables. Over a decoded block the key column is
// dictionary-coded, so a string predicate is evaluated once per
// dictionary entry into a 0/1 table and records index it through their
// uint32 key ids — no string is materialised or compared per record.
// Over a colscan.Cols batch, whose keys are plain strings, the same
// predicate compares the key of each surviving record.

// tile is the number of records evaluated at a time: a register is
// 8 KiB and a selection vector 4 KiB, so a typical expression's working
// set sits inside a 32 KiB L1.
const tile = 1024

// ident is the dense selection: every record of a tile. Read-only.
var ident = func() (sel [tile]int32) {
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}()

// arg is one numeric operand: a register, the value column itself, or
// an immediate.
type arg struct {
	reg int // register index, argCol or argImm
	imm float64
}

const (
	argCol = -1
	argImm = -2
)

type op uint8

// Binary opcodes come in three operand shapes, in this order: vector ∘
// vector, vector ∘ immediate (+VI), immediate ∘ vector (+IV).
const (
	opSet   op = iota // d = imm: the whole expression is a constant
	opNeg             // d = -a
	opCall1           // d = f1(a)
	opAdd
	opAddVI
	opAddIV
	opSub
	opSubVI
	opSubIV
	opMul
	opMulVI
	opMulIV
	opDiv
	opDivVI
	opDivIV
	opCall2
	opCall2VI
	opCall2IV
)

type instr struct {
	op   op
	dst  int
	a, b arg
	f1   func(float64) float64
	f2   func(float64, float64) float64
}

type predOp uint8

const (
	pConst predOp = iota // val
	pAnd                 // x && y: y over x's survivors
	pOr                  // x || y: mask fallback
	pNot                 // !x: mask fallback
	pStr                 // (key == lit) == eq
	pCmp                 // a cmp b after running code
)

// pred is one node of a compiled boolean expression.
type pred struct {
	op   predOp
	x, y *pred
	val  bool // pConst
	buf  int  // pOr, pNot: first scratch selection vector of the node

	lit  string // pStr
	eq   bool
	slot int // pStr: index of the predicate's truth table

	cmp  tokKind // pCmp: tLt, tLe, tGt, tGe, tEq or tNe
	code []instr // pCmp: computes the register operands
	a, b arg     // pCmp: a is never an immediate
}

// compiled is one executable expression — a numeric program (code, res)
// or a predicate tree (pred) — with the tile resources it needs, the
// checked AST (for the reference walk and canonical printing) and
// whether it reads the key column.
type compiled struct {
	src     string
	root    node
	usesKey bool

	code []instr // numeric expressions
	res  arg
	pred *pred   // boolean expressions
	strs []*pred // the tree's pStr nodes, by slot

	nregs, nsels int
}

// compileExpr parses, checks and compiles src, requiring the given
// result kind.
func compileExpr(src string, want kind, what string) (*compiled, error) {
	root, err := parseExpr(src)
	if err != nil {
		return nil, err
	}
	k, err := checkKind(src, root)
	if err != nil {
		return nil, err
	}
	if k != want {
		return nil, posErrf(src, root.pos(), "%s must be a %s expression, got %s", what, want, k)
	}
	_, key := refs(root)
	c := &compiled{src: src, root: root, usesKey: key}
	switch k {
	case kBool:
		c.nsels = 1 // vector 0 receives the result
		c.pred = c.emitPred(root, 1)
	case kNum:
		c.res = c.emitNum(&c.code, root, 0)
		if c.res.reg == argImm {
			c.code = append(c.code, instr{op: opSet, a: c.res})
			c.res = arg{reg: 0}
			c.nregs = 1
		}
	}
	return c, nil
}

// emitNum appends the instructions computing numeric subtree n to code
// and returns the operand that holds its value. depth is the first free
// register; register pressure equals expression depth, so nregs stays
// tiny.
func (c *compiled) emitNum(code *[]instr, n node, depth int) arg {
	if v, _ := refs(n); !v {
		return arg{reg: argImm, imm: evalNode(n, "", 0)}
	}
	var in instr
	switch n := n.(type) {
	case *varRef:
		return arg{reg: argCol}
	case *unaryOp: // "-"; "!" never type-checks at a numeric position
		in = instr{op: opNeg, a: c.emitNum(code, n.x, depth)}
	case *binOp:
		in = instr{a: c.emitNum(code, n.x, depth), b: c.emitNum(code, n.y, depth+1)}
		switch n.op {
		case tPlus:
			in.op = opAdd
		case tMinus:
			in.op = opSub
		case tStar:
			in.op = opMul
		default:
			in.op = opDiv
		}
		in.op += shape(in.a, in.b)
	case *callOp:
		spec := funcs[n.fn]
		if spec.arity == 1 {
			in = instr{op: opCall1, f1: spec.f1, a: c.emitNum(code, n.args[0], depth)}
		} else {
			in = instr{f2: spec.f2, a: c.emitNum(code, n.args[0], depth), b: c.emitNum(code, n.args[1], depth+1)}
			in.op = opCall2 + shape(in.a, in.b)
		}
	}
	in.dst = depth
	*code = append(*code, in)
	c.nregs = max(c.nregs, depth+1)
	return arg{reg: depth}
}

// shape is the opcode offset of a binary instruction's operand shape.
// Both immediate cannot happen: such a subtree was folded.
func shape(a, b arg) op {
	switch {
	case b.reg == argImm:
		return 1
	case a.reg == argImm:
		return 2
	}
	return 0
}

// emitPred compiles boolean subtree n. buf is the first selection
// vector the node may use as scratch.
func (c *compiled) emitPred(n node, buf int) *pred {
	if v, key := refs(n); !v && !key {
		return &pred{op: pConst, val: evalNode(n, "", 0) != 0}
	}
	if u, ok := n.(*unaryOp); ok { // "!"
		c.nsels = max(c.nsels, buf+1)
		return &pred{op: pNot, x: c.emitPred(u.x, buf+1), buf: buf}
	}
	b := n.(*binOp) // the only other boolean node
	switch b.op {
	case tAndAnd:
		return &pred{op: pAnd, x: c.emitPred(b.x, buf), y: c.emitPred(b.y, buf)}
	case tOrOr:
		c.nsels = max(c.nsels, buf+2)
		return &pred{op: pOr, x: c.emitPred(b.x, buf+2), y: c.emitPred(b.y, buf+2), buf: buf}
	}
	if _, str := kindOfEq(b); str {
		lit, ok := b.x.(*strLit)
		if !ok {
			lit, ok = b.y.(*strLit)
		}
		if !ok { // key == key
			return &pred{op: pConst, val: b.op == tEq}
		}
		p := &pred{op: pStr, lit: lit.s, eq: b.op == tEq, slot: len(c.strs)}
		c.strs = append(c.strs, p)
		return p
	}
	p := &pred{op: pCmp, cmp: b.op}
	p.a = c.emitNum(&p.code, b.x, 0)
	p.b = c.emitNum(&p.code, b.y, 1)
	if p.a.reg == argImm { // c < x is x > c: comparisons mirror exactly
		p.a, p.b = p.b, p.a
		switch p.cmp {
		case tLt:
			p.cmp = tGt
		case tLe:
			p.cmp = tGe
		case tGt:
			p.cmp = tLt
		case tGe:
			p.cmp = tLe
		}
	}
	return p
}

// frame is one tile's view of the input columns plus the scratch the
// kernels work in. It lives on the caller's stack so a Scratch never
// retains a reference into a batch.
type frame struct {
	sc   *Scratch
	vals []float64 // the tile's window of the value column
	ids  []uint32  // the tile's key ids (dictionary-coded input)
	keys []string  // the tile's keys (string input)
}

// fit sizes the scratch for c (nil: nothing to do): tile-length
// registers and selection vectors, the mask, and one truth table per
// string predicate.
func (sc *Scratch) fit(c *compiled) {
	if c == nil {
		return
	}
	for len(sc.regs) < c.nregs {
		sc.regs = append(sc.regs, make([]float64, tile))
	}
	for len(sc.sels) < c.nsels {
		sc.sels = append(sc.sels, make([]int32, tile))
	}
	if c.nsels > 1 && sc.mask == nil {
		sc.mask = make([]uint8, tile)
	}
	for len(sc.truth) < len(c.strs) {
		sc.truth = append(sc.truth, nil)
	}
}

// bindDict evaluates c's string predicates once per entry of dict into
// the scratch's truth tables.
//
//earl:hotpath
func (sc *Scratch) bindDict(c *compiled, dict []string) {
	for i, p := range c.strs {
		t := sc.truth[i]
		if cap(t) < len(dict) {
			t = make([]uint8, len(dict))
		}
		t = t[:len(dict)]
		for j, k := range dict {
			t[j] = uint8(b2i((k == p.lit) == p.eq))
		}
		sc.truth[i] = t
	}
}

func (f *frame) operand(a arg) []float64 {
	switch {
	case a.reg >= 0:
		return f.sc.regs[a.reg]
	case a.reg == argCol:
		return f.vals
	}
	return nil
}

// eval runs numeric expression c over the selected records of the tile
// and returns the positional vector holding the result.
func (f *frame) eval(c *compiled, sel []int32) []float64 {
	f.run(c.code, sel)
	return f.operand(c.res)
}

// run executes numeric code over the selected records of the tile.
//
//earl:hotpath
func (f *frame) run(code []instr, sel []int32) {
	for i := range code {
		in := &code[i]
		d := f.sc.regs[in.dst]
		a, b := f.operand(in.a), f.operand(in.b)
		x, y := in.a.imm, in.b.imm
		switch in.op {
		case opSet:
			for _, s := range sel {
				d[s] = x
			}
		case opNeg:
			for _, s := range sel {
				d[s] = -a[s]
			}
		case opCall1:
			for _, s := range sel {
				d[s] = in.f1(a[s])
			}
		case opAdd:
			for _, s := range sel {
				d[s] = a[s] + b[s]
			}
		case opAddVI:
			for _, s := range sel {
				d[s] = a[s] + y
			}
		case opAddIV:
			for _, s := range sel {
				d[s] = x + b[s]
			}
		case opSub:
			for _, s := range sel {
				d[s] = a[s] - b[s]
			}
		case opSubVI:
			for _, s := range sel {
				d[s] = a[s] - y
			}
		case opSubIV:
			for _, s := range sel {
				d[s] = x - b[s]
			}
		case opMul:
			for _, s := range sel {
				d[s] = a[s] * b[s]
			}
		case opMulVI:
			for _, s := range sel {
				d[s] = a[s] * y
			}
		case opMulIV:
			for _, s := range sel {
				d[s] = x * b[s]
			}
		case opDiv:
			for _, s := range sel {
				d[s] = a[s] / b[s]
			}
		case opDivVI:
			for _, s := range sel {
				d[s] = a[s] / y
			}
		case opDivIV:
			for _, s := range sel {
				d[s] = x / b[s]
			}
		case opCall2:
			for _, s := range sel {
				d[s] = in.f2(a[s], b[s])
			}
		case opCall2VI:
			for _, s := range sel {
				d[s] = in.f2(a[s], y)
			}
		case opCall2IV:
			for _, s := range sel {
				d[s] = in.f2(x, b[s])
			}
		}
	}
}

// narrow writes the records of in that satisfy p to out, in order, and
// returns how many there are. out may be in itself (a cursor never
// passes the index it last read); in is otherwise left untouched.
//
//earl:hotpath
func (f *frame) narrow(p *pred, in, out []int32) int {
	k := 0
	switch p.op {
	case pConst:
		if p.val {
			k = copy(out, in)
		}
	case pAnd:
		k = f.narrow(p.x, in, out)
		k = f.narrow(p.y, out[:k], out)
	case pOr:
		sx, sy, m := f.sc.sels[p.buf], f.sc.sels[p.buf+1], f.sc.mask
		kx := f.narrow(p.x, in, sx)
		ky := f.narrow(p.y, in, sy)
		for _, s := range in {
			m[s] = 0
		}
		for _, s := range sx[:kx] {
			m[s] = 1
		}
		for _, s := range sy[:ky] {
			m[s] = 1
		}
		for _, s := range in {
			out[k] = s
			k += int(m[s])
		}
	case pNot:
		sx, m := f.sc.sels[p.buf], f.sc.mask
		kx := f.narrow(p.x, in, sx)
		for _, s := range in {
			m[s] = 1
		}
		for _, s := range sx[:kx] {
			m[s] = 0
		}
		for _, s := range in {
			out[k] = s
			k += int(m[s])
		}
	case pStr:
		if ids := f.ids; ids != nil {
			t := f.sc.truth[p.slot]
			for _, s := range in {
				out[k] = s
				k += int(t[ids[s]])
			}
			break
		}
		keys, lit, ne := f.keys, p.lit, b2i(!p.eq)
		for _, s := range in {
			out[k] = s
			k += b2i(keys[s] == lit) ^ ne
		}
	case pCmp:
		f.run(p.code, in)
		a, y := f.operand(p.a), p.b.imm
		if p.b.reg == argImm {
			switch p.cmp {
			case tLt:
				for _, s := range in {
					out[k] = s
					k += b2i(a[s] < y)
				}
			case tLe:
				for _, s := range in {
					out[k] = s
					k += b2i(a[s] <= y)
				}
			case tGt:
				for _, s := range in {
					out[k] = s
					k += b2i(a[s] > y)
				}
			case tGe:
				for _, s := range in {
					out[k] = s
					k += b2i(a[s] >= y)
				}
			case tEq:
				for _, s := range in {
					out[k] = s
					k += b2i(a[s] == y)
				}
			case tNe:
				for _, s := range in {
					out[k] = s
					k += b2i(a[s] != y)
				}
			}
			break
		}
		b := f.operand(p.b)
		switch p.cmp {
		case tLt:
			for _, s := range in {
				out[k] = s
				k += b2i(a[s] < b[s])
			}
		case tLe:
			for _, s := range in {
				out[k] = s
				k += b2i(a[s] <= b[s])
			}
		case tGt:
			for _, s := range in {
				out[k] = s
				k += b2i(a[s] > b[s])
			}
		case tGe:
			for _, s := range in {
				out[k] = s
				k += b2i(a[s] >= b[s])
			}
		case tEq:
			for _, s := range in {
				out[k] = s
				k += b2i(a[s] == b[s])
			}
		case tNe:
			for _, s := range in {
				out[k] = s
				k += b2i(a[s] != b[s])
			}
		}
	}
	return k
}

// evalOne runs the reference tree walk for one record — the exact-path
// and fuzz-oracle entry point.
func (c *compiled) evalOne(key string, v float64) float64 {
	return evalNode(c.root, key, v)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
