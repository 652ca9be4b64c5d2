package xquery

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"thalia/internal/explain"
	"thalia/internal/xmldom"
)

// Item is one member of a sequence: *xmldom.Element, AttrRef, string,
// float64, or bool.
type Item interface{}

// AttrRef is an attribute node produced by the attribute axis.
type AttrRef struct {
	Owner *xmldom.Element
	Name  string
	Value string
}

// Sequence is the XQuery value: an ordered sequence of items.
type Sequence []Item

// DocResolver maps a doc() URI to a document. THALIA binds this to the
// testbed, so that doc("cmu.xml") yields the extracted CMU catalog.
type DocResolver func(uri string) (*xmldom.Document, error)

// Context supplies everything a query evaluation needs beyond the query.
type Context struct {
	// Resolve implements the doc() function; nil makes doc() an error.
	Resolve DocResolver

	// Explain, when non-nil, receives operator-level spans (FLWOR clauses,
	// path steps, function calls, constructors — with rows in/out) and
	// document/transform provenance events. Every instrumentation site is
	// guarded by a nil check, so the nil default adds no allocations to
	// evaluation — the explain package's zero-overhead contract.
	Explain *explain.Recorder

	// vars holds the global bindings as ordered slots rather than a map:
	// Bind appends, lookup scans from the end. Repeated Bind calls of the
	// same name therefore shadow deterministically (latest wins) — the same
	// slot discipline the compiled-plan engine uses for its lexical scopes,
	// so both engines resolve shadowed bindings identically.
	vars []slotBinding
}

// slotBinding is one ordered global binding slot.
type slotBinding struct {
	name string
	val  Sequence
}

// NewContext returns a context resolving documents through resolve.
func NewContext(resolve DocResolver) *Context {
	return &Context{Resolve: resolve}
}

// Bind sets a global variable visible to the query. Binding an already-bound
// name appends a new slot that shadows the old one.
func (c *Context) Bind(name string, val Sequence) {
	c.vars = append(c.vars, slotBinding{name: name, val: val})
}

// Var returns the value of a global bound with Bind, honoring shadowing:
// the latest binding of a name wins. Both engines resolve free variables
// through it.
func (c *Context) Var(name string) (Sequence, bool) {
	for i := len(c.vars) - 1; i >= 0; i-- {
		if c.vars[i].name == name {
			return c.vars[i].val, true
		}
	}
	return nil, false
}

// DynamicError is a runtime evaluation failure.
type DynamicError struct{ Msg string }

// Error implements error.
func (e *DynamicError) Error() string { return "xquery: " + e.Msg }

func dynErrf(format string, args ...any) error {
	return &DynamicError{Msg: fmt.Sprintf(format, args...)}
}

// env is a chain of variable bindings layered over the context's globals.
type env struct {
	parent *env
	name   string
	val    Sequence
}

func (e *env) bind(name string, val Sequence) *env {
	return &env{parent: e, name: name, val: val}
}

func (e *env) lookup(name string) (Sequence, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if cur.name == name {
			return cur.val, true
		}
	}
	return nil, false
}

// Eval evaluates a parsed expression in the given context.
func Eval(expr Expr, ctx *Context) (Sequence, error) {
	ev := &evaluator{ctx: ctx, rec: ctx.Explain}
	return ev.eval(expr, nil)
}

// EvalQuery parses and evaluates src in one step.
func EvalQuery(src string, ctx *Context) (Sequence, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Eval(e, ctx)
}

type evaluator struct {
	ctx *Context
	// rec mirrors ctx.Explain; nil on the hot zero-overhead path.
	rec *explain.Recorder
}

func (ev *evaluator) lookupVar(name string, en *env) (Sequence, error) {
	if v, ok := en.lookup(name); ok {
		return v, nil
	}
	if v, ok := ev.ctx.Var(name); ok {
		return v, nil
	}
	return nil, dynErrf("unbound variable $%s", name)
}

func (ev *evaluator) eval(expr Expr, en *env) (Sequence, error) {
	switch e := expr.(type) {
	case *StringLit:
		return Sequence{e.Val}, nil
	case *NumberLit:
		return Sequence{e.Val}, nil
	case *VarRef:
		return ev.lookupVar(e.Name, en)
	case *SeqExpr:
		var out Sequence
		for _, item := range e.Items {
			s, err := ev.eval(item, en)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	case *Unary:
		return ev.evalUnary(e, en)
	case *Binary:
		return ev.evalBinary(e, en)
	case *PathExpr:
		return ev.evalPath(e, en)
	case *FLWOR:
		return ev.evalFLWOR(e, en)
	case *Call:
		return ev.evalCall(e, en)
	case *ElemCtor:
		el, err := ev.construct(e, en)
		if err != nil {
			return nil, err
		}
		return Sequence{el}, nil
	case *Quantified:
		return ev.evalQuantified(e, en)
	case *IfExpr:
		c, err := ev.eval(e.Cond, en)
		if err != nil {
			return nil, err
		}
		if EffectiveBool(c) {
			return ev.eval(e.Then, en)
		}
		return ev.eval(e.Else, en)
	default:
		return nil, dynErrf("unhandled expression %T", expr)
	}
}

func (ev *evaluator) evalUnary(e *Unary, en *env) (Sequence, error) {
	s, err := ev.eval(e.X, en)
	if err != nil {
		return nil, err
	}
	if len(s) == 0 {
		return nil, nil
	}
	n, ok := itemNumber(s[0])
	if !ok {
		return nil, dynErrf("cannot negate %v", s[0])
	}
	return Sequence{-n}, nil
}

func (ev *evaluator) evalBinary(e *Binary, en *env) (Sequence, error) {
	switch e.Op {
	case "and":
		l, err := ev.eval(e.L, en)
		if err != nil {
			return nil, err
		}
		if !EffectiveBool(l) {
			return Sequence{false}, nil
		}
		r, err := ev.eval(e.R, en)
		if err != nil {
			return nil, err
		}
		return Sequence{EffectiveBool(r)}, nil
	case "or":
		l, err := ev.eval(e.L, en)
		if err != nil {
			return nil, err
		}
		if EffectiveBool(l) {
			return Sequence{true}, nil
		}
		r, err := ev.eval(e.R, en)
		if err != nil {
			return nil, err
		}
		return Sequence{EffectiveBool(r)}, nil
	}
	l, err := ev.eval(e.L, en)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(e.R, en)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		return Sequence{generalCompare(e.Op, l, r)}, nil
	case "+", "-", "*", "div", "mod":
		return arith(e.Op, l, r)
	default:
		return nil, dynErrf("unknown operator %q", e.Op)
	}
}

// generalCompare implements XQuery general comparison: existential over the
// two sequences with untyped atomization. As an extension for the paper's
// benchmark queries, an equality whose literal side contains '%' is treated
// as a SQL LIKE match ('%Database%' means "contains Database").
func generalCompare(op string, l, r Sequence) bool {
	for _, li := range l {
		for _, ri := range r {
			if atomicCompare(op, li, ri) {
				return true
			}
		}
	}
	return false
}

func atomicCompare(op string, a, b Item) bool {
	as, bs := ItemString(a), ItemString(b)
	if op == "=" || op == "!=" {
		if isLikePattern(bs) {
			m := likeMatch(bs, as)
			if op == "!=" {
				return !m
			}
			return m
		}
		if isLikePattern(as) {
			m := likeMatch(as, bs)
			if op == "!=" {
				return !m
			}
			return m
		}
	}
	an, aok := itemNumber(a)
	bn, bok := itemNumber(b)
	if aok && bok {
		switch op {
		case "=":
			return an == bn
		case "!=":
			return an != bn
		case "<":
			return an < bn
		case "<=":
			return an <= bn
		case ">":
			return an > bn
		case ">=":
			return an >= bn
		}
	}
	switch op {
	case "=":
		return as == bs
	case "!=":
		return as != bs
	case "<":
		return as < bs
	case "<=":
		return as <= bs
	case ">":
		return as > bs
	case ">=":
		return as >= bs
	}
	return false
}

// isLikePattern reports whether s is a SQL-LIKE pattern as used by the
// benchmark queries ('%Database%', '%JR%', ...).
func isLikePattern(s string) bool { return strings.Contains(s, "%") }

// likeMatch evaluates a SQL LIKE pattern (with % wildcards only, which is
// all the benchmark uses) against a value, case-sensitively. The segments
// between wildcards must occur in order; with no leading % the first is
// anchored at the start, and with no trailing % the last must be a suffix.
func likeMatch(pattern, value string) bool {
	seg, rest, more := strings.Cut(pattern, "%")
	if !strings.HasPrefix(value, seg) {
		return false
	}
	pos := len(seg)
	for more {
		seg, rest, more = strings.Cut(rest, "%")
		idx := strings.Index(value[pos:], seg)
		if idx < 0 {
			return false
		}
		pos += idx + len(seg)
	}
	return strings.HasSuffix(value, seg)
}

func arith(op string, l, r Sequence) (Sequence, error) {
	if len(l) == 0 || len(r) == 0 {
		return nil, nil
	}
	a, aok := itemNumber(l[0])
	b, bok := itemNumber(r[0])
	if !aok || !bok {
		return nil, dynErrf("arithmetic on non-numeric values %q %s %q", ItemString(l[0]), op, ItemString(r[0]))
	}
	switch op {
	case "+":
		return Sequence{a + b}, nil
	case "-":
		return Sequence{a - b}, nil
	case "*":
		return Sequence{a * b}, nil
	case "div":
		if b == 0 {
			return nil, dynErrf("division by zero")
		}
		return Sequence{a / b}, nil
	case "mod":
		if b == 0 {
			return nil, dynErrf("modulo by zero")
		}
		return Sequence{math.Mod(a, b)}, nil
	}
	return nil, dynErrf("unknown arithmetic operator %q", op)
}

func (ev *evaluator) evalPath(e *PathExpr, en *env) (Sequence, error) {
	var sp *explain.Span
	if ev.rec != nil {
		sp = ev.rec.Begin(explain.KindPath, pathName(e))
	}
	var cur Sequence
	if e.Root != nil {
		s, err := ev.eval(e.Root, en)
		if err != nil {
			return nil, err
		}
		cur = s
	} else {
		// Relative path: the context item is bound as $. by predicates.
		if v, ok := en.lookup("."); ok {
			cur = v
		} else {
			return nil, dynErrf("relative path with no context item")
		}
	}
	for _, st := range e.Steps {
		var ssp *explain.Span
		if ev.rec != nil {
			ssp = ev.rec.Begin(explain.KindStep, stepName(st))
		}
		next, err := ev.step(cur, st, en)
		if err != nil {
			return nil, err
		}
		if ssp != nil {
			ssp.SetRows(len(cur), len(next))
			ssp.End()
		}
		cur = next
	}
	if sp != nil {
		sp.SetRows(-1, len(cur))
		sp.End()
	}
	return cur, nil
}

func (ev *evaluator) step(in Sequence, st Step, en *env) (Sequence, error) {
	var out Sequence
	for _, item := range in {
		// A document node's only child is its root element.
		if doc, ok := item.(*xmldom.Document); ok {
			switch st.Axis {
			case AxisChild:
				if st.Name == "*" || doc.Root.Name == st.Name {
					out = append(out, doc.Root)
				}
			case AxisDescendant:
				if st.Name == "*" || doc.Root.Name == st.Name {
					out = append(out, doc.Root)
				}
				for _, c := range doc.Root.Descendants(st.Name) {
					out = append(out, c)
				}
			}
			continue
		}
		el, ok := item.(*xmldom.Element)
		if !ok {
			continue
		}
		switch st.Axis {
		case AxisChild:
			for _, c := range el.ChildElements() {
				if st.Name == "*" || c.Name == st.Name {
					out = append(out, c)
				}
			}
		case AxisDescendant:
			for _, c := range el.Descendants(st.Name) {
				out = append(out, c)
			}
		case AxisAttribute:
			if st.Name == "*" {
				for _, a := range el.Attrs {
					out = append(out, AttrRef{Owner: el, Name: a.Name, Value: a.Value})
				}
			} else if v, ok := el.Attr(st.Name); ok {
				out = append(out, AttrRef{Owner: el, Name: st.Name, Value: v})
			}
		}
	}
	for _, pred := range st.Predicates {
		filtered, err := ev.filter(out, pred, en)
		if err != nil {
			return nil, err
		}
		out = filtered
	}
	return out, nil
}

// filter applies one predicate to a sequence: numeric predicates select by
// position (1-based); anything else is an effective-boolean filter with the
// context item bound to "$.".
func (ev *evaluator) filter(in Sequence, pred Expr, en *env) (Sequence, error) {
	if n, ok := pred.(*NumberLit); ok {
		idx := int(n.Val)
		if idx >= 1 && idx <= len(in) {
			return Sequence{in[idx-1]}, nil
		}
		return nil, nil
	}
	var out Sequence
	for _, item := range in {
		s, err := ev.eval(pred, en.bind(".", Sequence{item}))
		if err != nil {
			return nil, err
		}
		// A predicate evaluating to a number is positional even when
		// computed; unsupported in this subset, so treat as boolean.
		if EffectiveBool(s) {
			out = append(out, item)
		}
	}
	return out, nil
}

func (ev *evaluator) evalFLWOR(f *FLWOR, en *env) (Sequence, error) {
	type tuple struct {
		en  *env
		key Sequence
	}
	var sp *explain.Span
	if ev.rec != nil {
		sp = ev.rec.Begin(explain.KindFLWOR, "flwor")
		defer sp.End()
	}
	tuples := []*env{en}
	for _, fb := range f.Fors {
		var csp *explain.Span
		if ev.rec != nil {
			csp = ev.rec.Begin(explain.KindClause, "for $"+fb.Var)
		}
		var next []*env
		for _, t := range tuples {
			seq, err := ev.eval(fb.In, t)
			if err != nil {
				return nil, err
			}
			for _, item := range seq {
				next = append(next, t.bind(fb.Var, Sequence{item}))
			}
		}
		if csp != nil {
			csp.SetRows(len(tuples), len(next))
			csp.End()
		}
		tuples = next
	}
	for _, lb := range f.Lets {
		var csp *explain.Span
		if ev.rec != nil {
			csp = ev.rec.Begin(explain.KindClause, "let $"+lb.Var)
		}
		var next []*env
		for _, t := range tuples {
			val, err := ev.eval(lb.Val, t)
			if err != nil {
				return nil, err
			}
			next = append(next, t.bind(lb.Var, val))
		}
		if csp != nil {
			csp.SetRows(len(tuples), len(next))
			csp.End()
		}
		tuples = next
	}
	if f.Where != nil {
		var csp *explain.Span
		if ev.rec != nil {
			csp = ev.rec.Begin(explain.KindClause, "where")
		}
		var kept []*env
		for _, t := range tuples {
			cond, err := ev.eval(f.Where, t)
			if err != nil {
				return nil, err
			}
			if EffectiveBool(cond) {
				kept = append(kept, t)
			}
		}
		if csp != nil {
			csp.SetRows(len(tuples), len(kept))
			csp.End()
		}
		tuples = kept
	}
	if f.OrderBy != nil {
		var csp *explain.Span
		if ev.rec != nil {
			csp = ev.rec.Begin(explain.KindClause, "order by")
		}
		keyed := make([]tuple, len(tuples))
		for i, t := range tuples {
			k, err := ev.eval(f.OrderBy.Key, t)
			if err != nil {
				return nil, err
			}
			keyed[i] = tuple{en: t, key: k}
		}
		sort.SliceStable(keyed, func(i, j int) bool {
			less := sequenceLess(keyed[i].key, keyed[j].key)
			if f.OrderBy.Descending {
				return sequenceLess(keyed[j].key, keyed[i].key)
			}
			return less
		})
		for i := range keyed {
			tuples[i] = keyed[i].en
		}
		if csp != nil {
			csp.SetRows(len(tuples), len(tuples))
			csp.End()
		}
	}
	var rsp *explain.Span
	if ev.rec != nil {
		rsp = ev.rec.Begin(explain.KindClause, "return")
	}
	var out Sequence
	for _, t := range tuples {
		s, err := ev.eval(f.Return, t)
		if err != nil {
			return nil, err
		}
		out = append(out, s...)
	}
	if rsp != nil {
		rsp.SetRows(len(tuples), len(out))
		rsp.End()
	}
	return out, nil
}

func sequenceLess(a, b Sequence) bool {
	as, bs := "", ""
	if len(a) > 0 {
		as = ItemString(a[0])
	}
	if len(b) > 0 {
		bs = ItemString(b[0])
	}
	an, aok := strconv.ParseFloat(as, 64)
	bn, bok := strconv.ParseFloat(bs, 64)
	if aok == nil && bok == nil {
		return an < bn
	}
	return as < bs
}

func (ev *evaluator) evalQuantified(q *Quantified, en *env) (Sequence, error) {
	seq, err := ev.eval(q.In, en)
	if err != nil {
		return nil, err
	}
	for _, item := range seq {
		s, err := ev.eval(q.Sat, en.bind(q.Var, Sequence{item}))
		if err != nil {
			return nil, err
		}
		ok := EffectiveBool(s)
		if q.Every && !ok {
			return Sequence{false}, nil
		}
		if !q.Every && ok {
			return Sequence{true}, nil
		}
	}
	return Sequence{q.Every}, nil
}

// construct builds a new element from a direct constructor. Node content is
// deep-copied, per XQuery's copy semantics.
func (ev *evaluator) construct(c *ElemCtor, en *env) (*xmldom.Element, error) {
	if ev.rec != nil {
		sp := ev.rec.Begin(explain.KindConstruct, "<"+c.Name+">")
		defer sp.End()
	}
	el := xmldom.NewElement(c.Name)
	for _, a := range c.Attrs {
		var b strings.Builder
		for _, part := range a.Parts {
			s, err := ev.eval(part, en)
			if err != nil {
				return nil, err
			}
			b.WriteString(sequenceString(s))
		}
		el.SetAttr(a.Name, b.String())
	}
	for _, content := range c.Content {
		switch cc := content.(type) {
		case *StringLit:
			el.AppendText(cc.Val)
		case *ElemCtor:
			child, err := ev.construct(cc, en)
			if err != nil {
				return nil, err
			}
			el.Append(child)
		default:
			s, err := ev.eval(content, en)
			if err != nil {
				return nil, err
			}
			appendSequence(el, s)
		}
	}
	return el, nil
}

// appendSequence adds evaluated content to an element under construction:
// nodes are copied, adjacent atomic values are joined with spaces into text.
func appendSequence(el *xmldom.Element, s Sequence) {
	var atoms []string
	flush := func() {
		if len(atoms) > 0 {
			el.AppendText(strings.Join(atoms, " "))
			atoms = nil
		}
	}
	for _, item := range s {
		switch v := item.(type) {
		case *xmldom.Element:
			flush()
			el.Append(v.Clone())
		case AttrRef:
			el.SetAttr(v.Name, v.Value)
		default:
			atoms = append(atoms, ItemString(item))
		}
	}
	flush()
}

// EffectiveBool computes the effective boolean value of a sequence.
func EffectiveBool(s Sequence) bool {
	if len(s) == 0 {
		return false
	}
	if _, ok := s[0].(*xmldom.Element); ok {
		return true
	}
	if _, ok := s[0].(*xmldom.Document); ok {
		return true
	}
	if _, ok := s[0].(AttrRef); ok {
		return true
	}
	if len(s) > 1 {
		return true
	}
	switch v := s[0].(type) {
	case bool:
		return v
	case string:
		return v != ""
	case float64:
		return v != 0 && !math.IsNaN(v)
	default:
		return true
	}
}

// ItemString atomizes one item to its string value.
func ItemString(item Item) string {
	switch v := item.(type) {
	case *xmldom.Document:
		return v.Root.DeepText()
	case *xmldom.Element:
		return v.DeepText()
	case AttrRef:
		return v.Value
	case string:
		return v
	case float64:
		return formatNumber(v)
	case bool:
		if v {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// sequenceString atomizes a whole sequence, space-joined. Empty and
// single-item sequences — the common comparison operands — skip the
// parts-slice-and-join allocation entirely.
func sequenceString(s Sequence) string {
	switch len(s) {
	case 0:
		return ""
	case 1:
		return ItemString(s[0])
	}
	parts := make([]string, len(s))
	for i, item := range s {
		parts[i] = ItemString(item)
	}
	return strings.Join(parts, " ")
}

func itemNumber(item Item) (float64, bool) {
	switch v := item.(type) {
	case float64:
		return v, true
	case bool:
		if v {
			return 1, true
		}
		return 0, true
	default:
		s := strings.TrimSpace(ItemString(item))
		// Most strings compared with = are not numbers: skip the parse, and
		// the *strconv.NumError it allocates, when s cannot start a float.
		if s == "" || strings.IndexByte(floatStart, s[0]) < 0 {
			return 0, false
		}
		n, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, false
		}
		return n, true
	}
}

// floatStart holds every byte that can begin a string strconv.ParseFloat
// accepts: a digit, a sign, a decimal point, or the first letter of "inf",
// "infinity" or "nan" in either case.
const floatStart = "0123456789+-.iInN"

// formatNumber renders a float like XQuery renders xs:decimal: integers
// without a decimal point.
func formatNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
