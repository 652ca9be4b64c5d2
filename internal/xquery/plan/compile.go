package plan

import (
	"fmt"
	"sort"
	"strings"

	"thalia/internal/xmldom"
	"thalia/internal/xquery"
)

// compiler turns AST nodes into compiled closures. Variables are resolved
// to integer slots at compile time: every for/let/quantified binding and
// every predicate context item ("."), gets a fresh slot, and references
// resolve lexically by scanning the scope from the end — exactly the
// ordered-slot shadowing discipline Context.Bind uses for globals, so both
// engines agree on what a shadowed name means. Names not in lexical scope
// fall back to Context.Var at runtime (free variables), or, for ".", to the
// interpreter's "relative path with no context item" error.
//
// Alongside the closures the compiler renders the plan as an indented
// textual tree (Plan.Dump) used by the golden plan tests.
type compiler struct {
	nSlots int
	scope  []scopeEntry
	lines  []string
	depth  int
}

type scopeEntry struct {
	name string
	slot int
}

// alloc reserves a new variable slot.
func (c *compiler) alloc() int {
	s := c.nSlots
	c.nSlots++
	return s
}

// declare brings a slot into lexical scope under name.
func (c *compiler) declare(name string, slot int) {
	c.scope = append(c.scope, scopeEntry{name: name, slot: slot})
}

// resolve finds the innermost binding of name, scanning from the end so the
// latest (shadowing) binding wins.
func (c *compiler) resolve(name string) (int, bool) {
	for i := len(c.scope) - 1; i >= 0; i-- {
		if c.scope[i].name == name {
			return c.scope[i].slot, true
		}
	}
	return 0, false
}

// emit appends one dump line at the current nesting depth.
func (c *compiler) emit(format string, args ...any) {
	c.lines = append(c.lines, strings.Repeat("  ", c.depth)+fmt.Sprintf(format, args...))
}

// render joins the dump lines collected during compilation.
func (c *compiler) render() string {
	return strings.Join(c.lines, "\n") + "\n"
}

// compile dispatches on the AST node kind. The thalia-vet plancoverage
// analyzer enforces that every xquery.Expr implementation has a case here.
func (c *compiler) compile(e xquery.Expr) (compiled, error) {
	switch n := e.(type) {
	case *xquery.StringLit:
		c.emit("string %q", n.Val)
		val := xquery.Sequence{n.Val}
		return func(rt *runtime) (xquery.Sequence, error) { return val, nil }, nil

	case *xquery.NumberLit:
		c.emit("number %s", xquery.ItemString(n.Val))
		val := xquery.Sequence{n.Val}
		return func(rt *runtime) (xquery.Sequence, error) { return val, nil }, nil

	case *xquery.VarRef:
		name := n.Name
		if slot, ok := c.resolve(name); ok {
			c.emit("var $%s slot=%d", name, slot)
			return func(rt *runtime) (xquery.Sequence, error) { return rt.slots[slot], nil }, nil
		}
		c.emit("var $%s global", name)
		return func(rt *runtime) (xquery.Sequence, error) {
			if v, ok := rt.ctx.Var(name); ok {
				return v, nil
			}
			return nil, xquery.DynErrorf("unbound variable $%s", name)
		}, nil

	case *xquery.SeqExpr:
		c.emit("seq n=%d", len(n.Items))
		c.depth++
		items := make([]compiled, len(n.Items))
		for i, item := range n.Items {
			f, err := c.compile(item)
			if err != nil {
				return nil, err
			}
			items[i] = f
		}
		c.depth--
		return func(rt *runtime) (xquery.Sequence, error) {
			var out xquery.Sequence
			for _, f := range items {
				s, err := f(rt)
				if err != nil {
					return nil, err
				}
				out = append(out, s...)
			}
			return out, nil
		}, nil

	case *xquery.Unary:
		c.emit("unary %s", n.Op)
		c.depth++
		x, err := c.compile(n.X)
		c.depth--
		if err != nil {
			return nil, err
		}
		return func(rt *runtime) (xquery.Sequence, error) {
			s, err := x(rt)
			if err != nil {
				return nil, err
			}
			if len(s) == 0 {
				return nil, nil
			}
			v, ok := xquery.ItemNumber(s[0])
			if !ok {
				return nil, xquery.DynErrorf("cannot negate %v", s[0])
			}
			return xquery.Sequence{-v}, nil
		}, nil

	case *xquery.Binary:
		return c.compileBinary(n)

	case *xquery.PathExpr:
		return c.compilePath(n)

	case *xquery.FLWOR:
		return c.compileFLWOR(n)

	case *xquery.Call:
		return c.compileCall(n)

	case *xquery.ElemCtor:
		ctor, err := c.compileCtor(n)
		if err != nil {
			return nil, err
		}
		return func(rt *runtime) (xquery.Sequence, error) {
			el, err := ctor(rt)
			if err != nil {
				return nil, err
			}
			return xquery.Sequence{el}, nil
		}, nil

	case *xquery.Quantified:
		return c.compileQuantified(n)

	case *xquery.IfExpr:
		c.emit("if")
		c.depth++
		cond, err := c.compile(n.Cond)
		if err != nil {
			return nil, err
		}
		c.emit("then")
		c.depth++
		then, err := c.compile(n.Then)
		c.depth--
		if err != nil {
			return nil, err
		}
		c.emit("else")
		c.depth++
		els, err := c.compile(n.Else)
		c.depth--
		c.depth--
		if err != nil {
			return nil, err
		}
		return func(rt *runtime) (xquery.Sequence, error) {
			s, err := cond(rt)
			if err != nil {
				return nil, err
			}
			if xquery.EffectiveBool(s) {
				return then(rt)
			}
			return els(rt)
		}, nil

	default:
		return nil, fmt.Errorf("plan: cannot compile expression %T", e)
	}
}

func (c *compiler) compileBinary(n *xquery.Binary) (compiled, error) {
	op := n.Op
	c.emit("binary %q", op)
	c.depth++
	l, err := c.compile(n.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(n.R)
	c.depth--
	if err != nil {
		return nil, err
	}
	switch op {
	case "and":
		return func(rt *runtime) (xquery.Sequence, error) {
			ls, err := l(rt)
			if err != nil {
				return nil, err
			}
			if !xquery.EffectiveBool(ls) {
				return xquery.Sequence{false}, nil
			}
			rs, err := r(rt)
			if err != nil {
				return nil, err
			}
			return xquery.Sequence{xquery.EffectiveBool(rs)}, nil
		}, nil
	case "or":
		return func(rt *runtime) (xquery.Sequence, error) {
			ls, err := l(rt)
			if err != nil {
				return nil, err
			}
			if xquery.EffectiveBool(ls) {
				return xquery.Sequence{true}, nil
			}
			rs, err := r(rt)
			if err != nil {
				return nil, err
			}
			return xquery.Sequence{xquery.EffectiveBool(rs)}, nil
		}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		return func(rt *runtime) (xquery.Sequence, error) {
			ls, err := l(rt)
			if err != nil {
				return nil, err
			}
			rs, err := r(rt)
			if err != nil {
				return nil, err
			}
			return xquery.Sequence{xquery.GeneralCompare(op, ls, rs)}, nil
		}, nil
	case "+", "-", "*", "div", "mod":
		return func(rt *runtime) (xquery.Sequence, error) {
			ls, err := l(rt)
			if err != nil {
				return nil, err
			}
			rs, err := r(rt)
			if err != nil {
				return nil, err
			}
			return xquery.Arith(op, ls, rs)
		}, nil
	default:
		// The interpreter evaluates both operands before rejecting the
		// operator; mirror that so error ordering matches.
		return func(rt *runtime) (xquery.Sequence, error) {
			if _, err := l(rt); err != nil {
				return nil, err
			}
			if _, err := r(rt); err != nil {
				return nil, err
			}
			return nil, xquery.DynErrorf("unknown operator %q", op)
		}, nil
	}
}

// compiledStep is one compiled path step.
type compiledStep struct {
	axis  xquery.StepAxis
	name  string
	preds []compiledPred
}

// compiledPred is one compiled step predicate: positional when isPos
// (a literal number in the source), an effective-boolean filter otherwise,
// with the context item bound to slot.
type compiledPred struct {
	isPos bool
	pos   int
	slot  int
	fn    compiled
}

func axisName(a xquery.StepAxis) string {
	switch a {
	case xquery.AxisChild:
		return "child"
	case xquery.AxisDescendant:
		return "descendant"
	case xquery.AxisAttribute:
		return "attribute"
	}
	return "?"
}

func (c *compiler) compilePath(n *xquery.PathExpr) (compiled, error) {
	c.emit("path")
	c.depth++
	var root compiled
	if n.Root != nil {
		c.emit("root")
		c.depth++
		f, err := c.compile(n.Root)
		c.depth--
		if err != nil {
			return nil, err
		}
		root = f
	} else if slot, ok := c.resolve("."); ok {
		c.emit("context . slot=%d", slot)
		root = func(rt *runtime) (xquery.Sequence, error) { return rt.slots[slot], nil }
	} else {
		// Lexical scoping makes "no context item" decidable at compile
		// time, but the interpreter reports it at evaluation time, so the
		// plan does too.
		c.emit("context . (unbound)")
		root = func(rt *runtime) (xquery.Sequence, error) {
			return nil, xquery.DynErrorf("relative path with no context item")
		}
	}
	steps := make([]compiledStep, len(n.Steps))
	for i, st := range n.Steps {
		cs := compiledStep{axis: st.Axis, name: st.Name}
		c.emit("step %s %s", axisName(st.Axis), st.Name)
		c.depth++
		for _, pred := range st.Predicates {
			if num, ok := pred.(*xquery.NumberLit); ok {
				c.emit("predicate position=%d", int(num.Val))
				cs.preds = append(cs.preds, compiledPred{isPos: true, pos: int(num.Val)})
				continue
			}
			slot := c.alloc()
			c.emit("predicate slot=%d", slot)
			c.depth++
			mark := len(c.scope)
			c.declare(".", slot)
			fn, err := c.compile(pred)
			c.scope = c.scope[:mark]
			c.depth--
			if err != nil {
				return nil, err
			}
			cs.preds = append(cs.preds, compiledPred{slot: slot, fn: fn})
		}
		c.depth--
		steps[i] = cs
	}
	c.depth--
	return func(rt *runtime) (xquery.Sequence, error) {
		cur, err := root(rt)
		if err != nil {
			return nil, err
		}
		for i := range steps {
			cur, err = execStep(rt, cur, &steps[i])
			if err != nil {
				return nil, err
			}
		}
		return cur, nil
	}, nil
}

// execStep runs one compiled step: axis navigation, then predicates in
// order — the interpreter's step semantics.
func execStep(rt *runtime, in xquery.Sequence, st *compiledStep) (xquery.Sequence, error) {
	var out xquery.Sequence
	if len(in) > 0 {
		// Most steps are roughly size-preserving (child/attribute fan-out of
		// ~1 per input); pre-size to the input length so the append loop
		// grows the output once instead of doubling through several sizes.
		out = make(xquery.Sequence, 0, len(in))
	}
	for _, item := range in {
		// A document node's only child is its root element.
		if doc, ok := item.(*xmldom.Document); ok {
			switch st.axis {
			case xquery.AxisChild:
				if st.name == "*" || doc.Root.Name == st.name {
					out = append(out, doc.Root)
				}
			case xquery.AxisDescendant:
				if st.name == "*" || doc.Root.Name == st.name {
					out = append(out, doc.Root)
				}
				for _, el := range doc.Root.Descendants(st.name) {
					out = append(out, el)
				}
			}
			continue
		}
		el, ok := item.(*xmldom.Element)
		if !ok {
			continue
		}
		switch st.axis {
		case xquery.AxisChild:
			// Iterate Children directly: ChildElements would allocate a
			// fresh slice per input element on the hottest loop in the
			// engine.
			for _, c := range el.Children {
				if ch, ok := c.(*xmldom.Element); ok && (st.name == "*" || ch.Name == st.name) {
					out = append(out, ch)
				}
			}
		case xquery.AxisDescendant:
			for _, ch := range el.Descendants(st.name) {
				out = append(out, ch)
			}
		case xquery.AxisAttribute:
			if st.name == "*" {
				for _, a := range el.Attrs {
					out = append(out, xquery.AttrRef{Owner: el, Name: a.Name, Value: a.Value})
				}
			} else if v, ok := el.Attr(st.name); ok {
				out = append(out, xquery.AttrRef{Owner: el, Name: st.name, Value: v})
			}
		}
	}
	for i := range st.preds {
		filtered, err := execPred(rt, out, &st.preds[i])
		if err != nil {
			return nil, err
		}
		out = filtered
	}
	return out, nil
}

func execPred(rt *runtime, in xquery.Sequence, pred *compiledPred) (xquery.Sequence, error) {
	if pred.isPos {
		if pred.pos >= 1 && pred.pos <= len(in) {
			return xquery.Sequence{in[pred.pos-1]}, nil
		}
		return nil, nil
	}
	var out xquery.Sequence
	if len(in) > 0 {
		out = make(xquery.Sequence, 0, len(in))
	}
	for _, item := range in {
		rt.slots[pred.slot] = xquery.Sequence{item}
		s, err := pred.fn(rt)
		if err != nil {
			return nil, err
		}
		if xquery.EffectiveBool(s) {
			out = append(out, item)
		}
	}
	return out, nil
}

func (c *compiler) compileFLWOR(n *xquery.FLWOR) (compiled, error) {
	mark := len(c.scope)
	defer func() { c.scope = c.scope[:mark] }()
	c.emit("flwor")
	c.depth++

	type forPlan struct {
		slot int
		in   compiled
	}
	type letPlan struct {
		slot int
		val  compiled
	}
	// binderSlots lists every for/let slot in clause order; runtime tuples
	// are value snapshots of a prefix of these slots.
	var binderSlots []int
	fors := make([]forPlan, len(n.Fors))
	for i, fb := range n.Fors {
		slot := c.alloc()
		c.emit("for $%s slot=%d", fb.Var, slot)
		c.depth++
		in, err := c.compile(fb.In)
		c.depth--
		if err != nil {
			return nil, err
		}
		c.declare(fb.Var, slot)
		binderSlots = append(binderSlots, slot)
		fors[i] = forPlan{slot: slot, in: in}
	}
	lets := make([]letPlan, len(n.Lets))
	for i, lb := range n.Lets {
		slot := c.alloc()
		c.emit("let $%s slot=%d", lb.Var, slot)
		c.depth++
		val, err := c.compile(lb.Val)
		c.depth--
		if err != nil {
			return nil, err
		}
		c.declare(lb.Var, slot)
		binderSlots = append(binderSlots, slot)
		lets[i] = letPlan{slot: slot, val: val}
	}
	var where compiled
	if n.Where != nil {
		c.emit("where")
		c.depth++
		f, err := c.compile(n.Where)
		c.depth--
		if err != nil {
			return nil, err
		}
		where = f
	}
	var orderKey compiled
	descending := false
	if n.OrderBy != nil {
		descending = n.OrderBy.Descending
		if descending {
			c.emit("order by descending")
		} else {
			c.emit("order by")
		}
		c.depth++
		f, err := c.compile(n.OrderBy.Key)
		c.depth--
		if err != nil {
			return nil, err
		}
		orderKey = f
	}
	c.emit("return")
	c.depth++
	ret, err := c.compile(n.Return)
	c.depth--
	c.depth--
	if err != nil {
		return nil, err
	}

	restore := func(rt *runtime, t []xquery.Sequence) {
		for i, v := range t {
			rt.slots[binderSlots[i]] = v
		}
	}
	return func(rt *runtime) (xquery.Sequence, error) {
		tuples := [][]xquery.Sequence{nil}
		for _, fp := range fors {
			var next [][]xquery.Sequence
			for _, t := range tuples {
				restore(rt, t)
				seq, err := fp.in(rt)
				if err != nil {
					return nil, err
				}
				if len(seq) == 0 {
					continue
				}
				// One arena allocation backs every extended tuple this input
				// sequence produces, instead of one allocation per item.
				width := len(t) + 1
				arena := make([]xquery.Sequence, len(seq)*width)
				for i, item := range seq {
					nt := arena[i*width : (i+1)*width : (i+1)*width]
					copy(nt, t)
					nt[len(t)] = xquery.Sequence{item}
					next = append(next, nt)
				}
			}
			tuples = next
		}
		for _, lp := range lets {
			width := 0
			var arena []xquery.Sequence
			next := make([][]xquery.Sequence, 0, len(tuples))
			for _, t := range tuples {
				restore(rt, t)
				val, err := lp.val(rt)
				if err != nil {
					return nil, err
				}
				if arena == nil {
					width = len(t) + 1
					arena = make([]xquery.Sequence, len(tuples)*width)
				}
				nt := arena[:width:width]
				arena = arena[width:]
				copy(nt, t)
				nt[len(t)] = val
				next = append(next, nt)
			}
			tuples = next
		}
		if where != nil {
			kept := tuples[:0]
			for _, t := range tuples {
				restore(rt, t)
				cond, err := where(rt)
				if err != nil {
					return nil, err
				}
				if xquery.EffectiveBool(cond) {
					kept = append(kept, t)
				}
			}
			tuples = kept
		}
		if orderKey != nil {
			type keyedTuple struct {
				t   []xquery.Sequence
				key xquery.Sequence
			}
			keyed := make([]keyedTuple, len(tuples))
			for i, t := range tuples {
				restore(rt, t)
				k, err := orderKey(rt)
				if err != nil {
					return nil, err
				}
				keyed[i] = keyedTuple{t: t, key: k}
			}
			sort.SliceStable(keyed, func(i, j int) bool {
				less := xquery.SequenceLess(keyed[i].key, keyed[j].key)
				if descending {
					return xquery.SequenceLess(keyed[j].key, keyed[i].key)
				}
				return less
			})
			for i := range keyed {
				tuples[i] = keyed[i].t
			}
		}
		var out xquery.Sequence
		for _, t := range tuples {
			restore(rt, t)
			s, err := ret(rt)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	}, nil
}

func (c *compiler) compileCall(n *xquery.Call) (compiled, error) {
	name := n.Name
	b, isBuiltin := xquery.LookupBuiltin(name)
	if isBuiltin {
		c.emit("call %s() builtin", name)
	} else {
		c.emit("call %s() unknown", name)
	}
	c.depth++
	args := make([]compiled, len(n.Args))
	for i, a := range n.Args {
		f, err := c.compile(a)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	c.depth--
	evalArgs := func(rt *runtime) ([]xquery.Sequence, error) {
		vals := make([]xquery.Sequence, len(args))
		for i, f := range args {
			s, err := f(rt)
			if err != nil {
				return nil, err
			}
			vals[i] = s
		}
		return vals, nil
	}
	if isBuiltin {
		// Pre-resolved: the map lookup happens once, here. Arity is still
		// checked per call, after argument evaluation, so argument errors
		// surface first exactly as in the interpreter.
		return func(rt *runtime) (xquery.Sequence, error) {
			vals, err := evalArgs(rt)
			if err != nil {
				return nil, err
			}
			return b.Invoke(name, rt.ctx, rt.rec, vals)
		}, nil
	}
	// Not a builtin: evaluate the arguments, so their errors surface first,
	// then fail exactly as the interpreter does.
	return func(rt *runtime) (xquery.Sequence, error) {
		if _, err := evalArgs(rt); err != nil {
			return nil, err
		}
		return nil, xquery.DynErrorf("unknown function %s()", name)
	}, nil
}

func (c *compiler) compileCtor(n *xquery.ElemCtor) (func(*runtime) (*xmldom.Element, error), error) {
	name := n.Name
	c.emit("element <%s>", name)
	c.depth++
	type attrPlan struct {
		name  string
		parts []compiled
	}
	attrs := make([]attrPlan, len(n.Attrs))
	for i, a := range n.Attrs {
		c.emit("attribute %s", a.Name)
		c.depth++
		parts := make([]compiled, len(a.Parts))
		for j, part := range a.Parts {
			f, err := c.compile(part)
			if err != nil {
				return nil, err
			}
			parts[j] = f
		}
		c.depth--
		attrs[i] = attrPlan{name: a.Name, parts: parts}
	}
	content := make([]func(*runtime, *xmldom.Element) error, len(n.Content))
	for i, cc := range n.Content {
		switch v := cc.(type) {
		case *xquery.StringLit:
			c.emit("text %q", v.Val)
			lit := v.Val
			content[i] = func(rt *runtime, el *xmldom.Element) error {
				el.AppendText(lit)
				return nil
			}
		case *xquery.ElemCtor:
			sub, err := c.compileCtor(v)
			if err != nil {
				return nil, err
			}
			content[i] = func(rt *runtime, el *xmldom.Element) error {
				child, err := sub(rt)
				if err != nil {
					return err
				}
				el.Append(child)
				return nil
			}
		default:
			f, err := c.compile(cc)
			if err != nil {
				return nil, err
			}
			content[i] = func(rt *runtime, el *xmldom.Element) error {
				s, err := f(rt)
				if err != nil {
					return err
				}
				xquery.AppendContent(el, s)
				return nil
			}
		}
	}
	c.depth--
	return func(rt *runtime) (*xmldom.Element, error) {
		el := xmldom.NewElement(name)
		for _, a := range attrs {
			var b strings.Builder
			for _, part := range a.parts {
				s, err := part(rt)
				if err != nil {
					return nil, err
				}
				b.WriteString(xquery.SequenceString(s))
			}
			el.SetAttr(a.name, b.String())
		}
		for _, app := range content {
			if err := app(rt, el); err != nil {
				return nil, err
			}
		}
		return el, nil
	}, nil
}

func (c *compiler) compileQuantified(n *xquery.Quantified) (compiled, error) {
	every := n.Every
	if every {
		c.emit("every $%s", n.Var)
	} else {
		c.emit("some $%s", n.Var)
	}
	c.depth++
	in, err := c.compile(n.In)
	if err != nil {
		return nil, err
	}
	slot := c.alloc()
	c.emit("satisfies slot=%d", slot)
	c.depth++
	mark := len(c.scope)
	c.declare(n.Var, slot)
	sat, err := c.compile(n.Sat)
	c.scope = c.scope[:mark]
	c.depth--
	c.depth--
	if err != nil {
		return nil, err
	}
	return func(rt *runtime) (xquery.Sequence, error) {
		seq, err := in(rt)
		if err != nil {
			return nil, err
		}
		for _, item := range seq {
			rt.slots[slot] = xquery.Sequence{item}
			s, err := sat(rt)
			if err != nil {
				return nil, err
			}
			ok := xquery.EffectiveBool(s)
			if every && !ok {
				return xquery.Sequence{false}, nil
			}
			if !every && ok {
				return xquery.Sequence{true}, nil
			}
		}
		return xquery.Sequence{every}, nil
	}, nil
}
