package analysis

import (
	"fmt"
	"strconv"
	"strings"

	"thalia/internal/benchmark"
	"thalia/internal/catalog"
	"thalia/internal/xquery"
	"thalia/internal/xsd"
)

// This file is the query/schema head of thalia-vet: a static abstract
// interpretation of each benchmark query against the XML Schemas the
// testbed's catalogs actually publish. Instead of node sequences, every
// expression evaluates to a set of schema declarations (plus literal
// values), so the checker can prove that each path step lands on a declared
// element, every $variable is bound, every function exists, and comparison
// operands can unify under the schema's types — all before a single
// document is materialized.

// QueryCheckConfig configures CheckQueries.
type QueryCheckConfig struct {
	// SchemaFor resolves a doc() URI (e.g. "brown.xml" or "brown") to the
	// schema of the document it denotes. Nil means the testbed's catalogs.
	SchemaFor func(uri string) (*xsd.Schema, error)
	// Locator maps findings back to file:line positions in the Go source
	// that embeds the query text. Nil leaves findings without positions.
	Locator *Locator
}

// CatalogSchemaFor resolves doc() URIs against the testbed: "brown.xml"
// (or "brown") yields the brown source's inferred schema. It is the
// default SchemaFor of CheckQueries.
func CatalogSchemaFor(uri string) (*xsd.Schema, error) {
	name := strings.TrimSuffix(uri, ".xml")
	s, err := catalog.Get(name)
	if err != nil {
		return nil, err
	}
	return s.Schema()
}

// CheckQueries statically checks the runnable XQuery text of every query
// against the schemas its doc() calls resolve to.
func CheckQueries(queries []*benchmark.Query, cfg QueryCheckConfig) []Finding {
	if cfg.SchemaFor == nil {
		cfg.SchemaFor = CatalogSchemaFor
	}
	var out []Finding
	for _, q := range queries {
		c := &queryChecker{cfg: cfg, q: q}
		c.run()
		out = append(out, c.finds...)
	}
	return out
}

// valKind classifies the abstract value of an expression.
type valKind int

const (
	kindUnknown valKind = iota
	kindDoc             // a document node with a known schema
	kindNodes           // element/attribute nodes with known declarations
	kindString
	kindNumber
	kindBool
)

// sval is the abstract value: the set of schema declarations an expression
// can evaluate to, or a scalar kind, with literals tracked exactly.
type sval struct {
	kind   valKind
	schema *xsd.Schema        // kindDoc and kindNodes: owning schema
	decls  []*xsd.ElementDecl // kindNodes: element declarations
	attrs  []*xsd.AttrDecl    // kindNodes: attribute declarations
	lit    string             // kindString: literal value when litOK
	litOK  bool
}

func unknown() sval { return sval{kind: kindUnknown} }

// nonEmpty reports whether a node-valued sval resolved to any declaration.
func (v sval) nonEmpty() bool { return len(v.decls) > 0 || len(v.attrs) > 0 }

type queryChecker struct {
	cfg   QueryCheckConfig
	q     *benchmark.Query
	finds []Finding
}

// addf records a finding, positioned at the first occurrence of needle
// inside the query text when a locator is configured.
func (c *queryChecker) addf(check, needle, format string, args ...interface{}) {
	f := Finding{Check: check, QueryID: c.q.ID, Message: fmt.Sprintf(format, args...)}
	if c.cfg.Locator != nil {
		f.File = c.cfg.Locator.Path()
		f.Line, f.Column = c.cfg.Locator.Position(c.q.XQuery, needle)
	}
	c.finds = append(c.finds, f)
}

func (c *queryChecker) run() {
	expr, err := xquery.Parse(c.q.XQuery)
	if err != nil {
		f := Finding{Check: "parse", QueryID: c.q.ID, Message: err.Error()}
		if pe, ok := err.(*xquery.ParseError); ok && c.cfg.Locator != nil {
			f.File = c.cfg.Locator.Path()
			f.Line, f.Column = c.cfg.Locator.PositionInQuery(c.q.XQuery, pe.Line, pe.Column)
		}
		c.finds = append(c.finds, f)
		return
	}
	c.eval(expr, map[string]sval{})
}

// eval abstractly evaluates an expression under an environment mapping
// variable names to abstract values, recording findings along the way.
func (c *queryChecker) eval(e xquery.Expr, env map[string]sval) sval {
	switch n := e.(type) {
	case *xquery.StringLit:
		return sval{kind: kindString, lit: n.Val, litOK: true}
	case *xquery.NumberLit:
		return sval{kind: kindNumber}
	case *xquery.VarRef:
		v, ok := env[n.Name]
		if !ok {
			c.addf("unbound-var", "$"+n.Name, "unbound variable $%s", n.Name)
			return unknown()
		}
		return v
	case *xquery.FLWOR:
		inner := extend(env)
		for _, fb := range n.Fors {
			inner[fb.Var] = c.eval(fb.In, inner)
		}
		for _, lb := range n.Lets {
			inner[lb.Var] = c.eval(lb.Val, inner)
		}
		if n.Where != nil {
			c.eval(n.Where, inner)
		}
		if n.OrderBy != nil {
			c.eval(n.OrderBy.Key, inner)
		}
		return c.eval(n.Return, inner)
	case *xquery.PathExpr:
		return c.evalPath(n, env)
	case *xquery.Binary:
		return c.evalBinary(n, env)
	case *xquery.Unary:
		c.eval(n.X, env)
		return sval{kind: kindNumber}
	case *xquery.Call:
		return c.evalCall(n, env)
	case *xquery.SeqExpr:
		for _, item := range n.Items {
			c.eval(item, env)
		}
		return unknown()
	case *xquery.ElemCtor:
		for _, a := range n.Attrs {
			for _, part := range a.Parts {
				c.eval(part, env)
			}
		}
		for _, cn := range n.Content {
			c.eval(cn, env)
		}
		return unknown()
	case *xquery.Quantified:
		inner := extend(env)
		inner[n.Var] = c.eval(n.In, env)
		c.eval(n.Sat, inner)
		return sval{kind: kindBool}
	case *xquery.IfExpr:
		c.eval(n.Cond, env)
		c.eval(n.Then, env)
		c.eval(n.Else, env)
		return unknown()
	}
	return unknown()
}

func extend(env map[string]sval) map[string]sval {
	inner := make(map[string]sval, len(env)+2)
	for k, v := range env {
		inner[k] = v
	}
	return inner
}

func (c *queryChecker) evalPath(p *xquery.PathExpr, env map[string]sval) sval {
	var cur sval
	if p.Root != nil {
		cur = c.eval(p.Root, env)
	} else if v, ok := env["."]; ok {
		cur = v
	} else {
		cur = unknown()
	}
	for _, st := range p.Steps {
		next := stepDecls(cur, st)
		// Only report when the context was fully known: a dead step under a
		// resolved context is a real defect, not analysis imprecision.
		if (cur.kind == kindDoc || (cur.kind == kindNodes && cur.nonEmpty())) && !next.nonEmpty() {
			c.reportDeadStep(cur, st)
			next = unknown() // don't cascade one dead step into many findings
		}
		for _, pred := range st.Predicates {
			inner := extend(env)
			inner["."] = next
			c.eval(pred, inner)
		}
		cur = next
	}
	return cur
}

// stepDecls resolves one navigation step over an abstract value, mirroring
// the evaluator's step semantics on the schema instead of the instance.
func stepDecls(cur sval, st xquery.Step) sval {
	out := sval{kind: kindNodes, schema: cur.schema}
	switch cur.kind {
	case kindDoc:
		root := cur.schema.Root
		switch st.Axis {
		case xquery.AxisChild:
			if st.Name == "*" || root.Name == st.Name {
				out.decls = append(out.decls, root)
			}
		case xquery.AxisDescendant:
			if st.Name == "*" || root.Name == st.Name {
				out.decls = append(out.decls, root)
			}
			out.decls = append(out.decls, root.Descendants(st.Name)...)
		}
	case kindNodes:
		for _, d := range cur.decls {
			switch st.Axis {
			case xquery.AxisChild:
				if st.Name == "*" {
					out.decls = append(out.decls, d.Children...)
				} else if cd := d.Child(st.Name); cd != nil {
					out.decls = append(out.decls, cd)
				}
			case xquery.AxisDescendant:
				out.decls = append(out.decls, d.Descendants(st.Name)...)
			case xquery.AxisAttribute:
				if st.Name == "*" {
					out.attrs = append(out.attrs, d.Attributes...)
				} else if ad := d.Attribute(st.Name); ad != nil {
					out.attrs = append(out.attrs, ad)
				}
			}
		}
	default:
		return unknown()
	}
	if !out.nonEmpty() {
		out.kind = kindNodes // empty but typed; caller decides whether to report
	}
	return out
}

// reportDeadStep explains a step that matches nothing, with a "did you
// mean" hint drawn from the context's children first and the schema's whole
// vocabulary second.
func (c *queryChecker) reportDeadStep(cur sval, st xquery.Step) {
	name := st.Name
	if st.Axis == xquery.AxisAttribute {
		name = "@" + name
	}
	context := "document root"
	var local []string
	if cur.kind == kindDoc {
		context = fmt.Sprintf("document root (root element is %s)", cur.schema.Root.Name)
		local = []string{cur.schema.Root.Name}
	} else {
		names := map[string]bool{}
		var parents []string
		for _, d := range cur.decls {
			if !names[d.Name] {
				names[d.Name] = true
				parents = append(parents, d.Name)
			}
			for _, ch := range d.Children {
				local = append(local, ch.Name)
			}
			for _, a := range d.Attributes {
				local = append(local, "@"+a.Name)
			}
		}
		context = "element " + strings.Join(parents, ", ")
	}
	hint := suggest(name, local)
	if hint == "" && cur.schema != nil {
		hint = suggest(name, cur.schema.Vocabulary())
	}
	msg := fmt.Sprintf("dead path: step %q matches nothing under %s", name, context)
	if hint != "" && hint != name {
		msg += fmt.Sprintf(" (did you mean %q?)", hint)
	}
	c.addf("dead-path", st.Name, "%s", msg)
}

func (c *queryChecker) evalCall(n *xquery.Call, env map[string]sval) sval {
	if strings.EqualFold(n.Name, "doc") {
		return c.evalDoc(n, env)
	}
	for _, a := range n.Args {
		c.eval(a, env)
	}
	lower := strings.ToLower(n.Name)
	if !xquery.IsBuiltin(lower) {
		msg := fmt.Sprintf("unknown function %s()", n.Name)
		if hint := suggest(lower, xquery.BuiltinNames()); hint != "" {
			msg += fmt.Sprintf(" (did you mean %q?)", hint)
		}
		c.addf("unknown-func", n.Name, "%s", msg)
		return unknown()
	}
	switch lower {
	case "contains", "starts-with", "ends-with", "not", "true", "false", "exists", "empty":
		return sval{kind: kindBool}
	case "string-length", "number", "count", "sum", "avg", "min", "max":
		return sval{kind: kindNumber}
	case "substring", "substring-before", "substring-after", "upper-case",
		"lower-case", "normalize-space", "translate", "concat", "string-join",
		"string", "name", "local-name", "data", "distinct-values":
		return sval{kind: kindString}
	}
	return unknown()
}

func (c *queryChecker) evalDoc(n *xquery.Call, env map[string]sval) sval {
	if len(n.Args) != 1 {
		c.addf("unknown-func", n.Name, "doc() takes exactly one argument, got %d", len(n.Args))
		return unknown()
	}
	lit, ok := n.Args[0].(*xquery.StringLit)
	if !ok {
		c.eval(n.Args[0], env)
		return unknown() // dynamic URI: nothing to resolve statically
	}
	sch, err := c.cfg.SchemaFor(lit.Val)
	if err != nil {
		c.addf("dead-path", lit.Val, "doc(%q): %v", lit.Val, err)
		return unknown()
	}
	return sval{kind: kindDoc, schema: sch}
}

func (c *queryChecker) evalBinary(n *xquery.Binary, env map[string]sval) sval {
	l := c.eval(n.L, env)
	r := c.eval(n.R, env)
	switch n.Op {
	case "and", "or":
		return sval{kind: kindBool}
	case "=", "!=", "<", "<=", ">", ">=":
		c.checkUnify(n, l, r)
		return sval{kind: kindBool}
	case "+", "-", "*", "div", "mod", "to":
		for _, side := range []struct {
			v sval
			e xquery.Expr
		}{{l, n.L}, {r, n.R}} {
			if defType(side.v) == "xs:string" {
				c.addf("type-unify", needleFor(side.e),
					"arithmetic %q on non-numeric operand %s", n.Op, describe(side.e, side.v))
			}
		}
		return sval{kind: kindNumber}
	}
	return unknown()
}

// checkUnify flags comparisons whose operands provably cannot unify: one
// side is definitely numeric and the other definitely string-typed under
// the schema. Ambiguous operands (unknown kinds, empty-typed elements,
// numeric-looking literals) are given the benefit of the doubt.
func (c *queryChecker) checkUnify(n *xquery.Binary, l, r sval) {
	lt, rt := defType(l), defType(r)
	if lt == "" || rt == "" || lt == rt {
		return
	}
	c.addf("type-unify", needleForCmp(n),
		"comparison %q cannot unify: %s but %s",
		n.Op, describe(n.L, l), describe(n.R, r))
}

// defType reduces an abstract value to a definite atomic type: "xs:string",
// "xs:decimal", or "" when the analysis cannot be sure.
func defType(v sval) string {
	switch v.kind {
	case kindString:
		if v.litOK {
			if _, err := strconv.ParseFloat(strings.TrimSpace(v.lit), 64); err == nil {
				return "" // numeric-looking literal compares fine either way
			}
		}
		return "xs:string"
	case kindNumber:
		return "xs:decimal"
	case kindNodes:
		t := xsd.TypeEmpty
		sure := false
		for _, d := range v.decls {
			t = widenLeaf(t, d.LeafType())
			sure = true
		}
		for _, a := range v.attrs {
			t = widenLeaf(t, a.Type)
			sure = true
		}
		if !sure {
			return ""
		}
		switch t {
		case xsd.TypeInteger, xsd.TypeDecimal:
			return "xs:decimal"
		case xsd.TypeString, xsd.TypeAnyURI:
			return "xs:string"
		}
	}
	return ""
}

// widenLeaf is the analyzer's type join: like xsd's widening but any
// string/number conflict collapses to string (what atomization yields).
func widenLeaf(a, b xsd.Type) xsd.Type {
	if a == xsd.TypeEmpty {
		return b
	}
	if b == xsd.TypeEmpty || a == b {
		return a
	}
	if (a == xsd.TypeInteger || a == xsd.TypeDecimal) && (b == xsd.TypeInteger || b == xsd.TypeDecimal) {
		return xsd.TypeDecimal
	}
	return xsd.TypeString
}

// describe renders an operand with its inferred type for a finding message.
func describe(e xquery.Expr, v sval) string {
	t := defType(v)
	if t == "" {
		t = "unknown type"
	}
	return fmt.Sprintf("%s is %s", exprText(e), t)
}

// exprText renders an expression compactly for messages; it does not need
// to round-trip, only to let a reader find the operand in the query.
func exprText(e xquery.Expr) string {
	switch n := e.(type) {
	case *xquery.StringLit:
		return fmt.Sprintf("%q", n.Val)
	case *xquery.NumberLit:
		return strconv.FormatFloat(n.Val, 'g', -1, 64)
	case *xquery.VarRef:
		return "$" + n.Name
	case *xquery.Call:
		return n.Name + "(...)"
	case *xquery.PathExpr:
		var b strings.Builder
		if n.Root != nil {
			b.WriteString(exprText(n.Root))
		}
		for _, st := range n.Steps {
			switch st.Axis {
			case xquery.AxisDescendant:
				b.WriteString("//")
			case xquery.AxisAttribute:
				b.WriteString("/@")
			default:
				b.WriteString("/")
			}
			b.WriteString(st.Name)
		}
		return b.String()
	}
	return "expression"
}

// needleFor picks the query-text substring to anchor a finding at.
func needleFor(e xquery.Expr) string {
	switch n := e.(type) {
	case *xquery.StringLit:
		return n.Val
	case *xquery.VarRef:
		return "$" + n.Name
	case *xquery.Call:
		return n.Name
	case *xquery.PathExpr:
		if len(n.Steps) > 0 {
			return n.Steps[len(n.Steps)-1].Name
		}
		return needleFor(n.Root)
	}
	return ""
}

// needleForCmp anchors a comparison finding at its most distinctive
// operand: the literal if present, else the left operand.
func needleForCmp(n *xquery.Binary) string {
	if s, ok := n.R.(*xquery.StringLit); ok {
		return s.Val
	}
	if s, ok := n.L.(*xquery.StringLit); ok {
		return s.Val
	}
	return needleFor(n.L)
}
