package xquery

import (
	"strings"

	"thalia/internal/explain"
	"thalia/internal/xmldom"
)

// evalCall dispatches a builtin function call; any other name is an error.
func (ev *evaluator) evalCall(c *Call, en *env) (Sequence, error) {
	var sp *explain.Span
	if ev.rec != nil {
		sp = ev.rec.Begin(explain.KindCall, c.Name+"()")
	}
	out, err := ev.dispatchCall(c, en)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.SetRows(-1, len(out))
		sp.End()
	}
	return out, nil
}

func (ev *evaluator) dispatchCall(c *Call, en *env) (Sequence, error) {
	args := make([]Sequence, len(c.Args))
	for i, a := range c.Args {
		s, err := ev.eval(a, en)
		if err != nil {
			return nil, err
		}
		args[i] = s
	}
	if fn, ok := builtins[c.Name]; ok {
		return fn.Invoke(c.Name, ev.ctx, ev.rec, args)
	}
	return nil, dynErrf("unknown function %s()", c.Name)
}

// BuiltinFunc is the invocable form of a builtin: pure over its evaluated
// arguments except for doc(), which consults the context's resolver and
// records provenance. Both the interpreter and the compiled-plan engine
// dispatch through the same BuiltinFunc values, so builtin semantics cannot
// drift between engines.
type BuiltinFunc func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error)

// Builtin is one builtin function with its arity bounds.
type Builtin struct {
	MinArgs, MaxArgs int // MaxArgs -1 means variadic
	Fn               BuiltinFunc
}

// Invoke applies the interpreter's arity rule — checked only after the
// arguments were evaluated, so argument errors surface first — then calls
// the builtin.
func (b Builtin) Invoke(name string, ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
	if len(args) < b.MinArgs || (b.MaxArgs >= 0 && len(args) > b.MaxArgs) {
		return nil, dynErrf("%s: wrong number of arguments (%d)", name, len(args))
	}
	return b.Fn(ctx, rec, args)
}

// LookupBuiltin returns the builtin registered under name (already
// lower-cased by the parser). The compiled-plan engine uses it to resolve
// builtins once at compile time instead of per call.
func LookupBuiltin(name string) (Builtin, bool) {
	b, ok := builtins[name]
	return b, ok
}

func arg0String(args []Sequence) string {
	if len(args) == 0 || len(args[0]) == 0 {
		return ""
	}
	return ItemString(args[0][0])
}

func argString(args []Sequence, i int) string {
	if i >= len(args) || len(args[i]) == 0 {
		return ""
	}
	return ItemString(args[i][0])
}

var builtins map[string]Builtin

func init() {
	builtins = map[string]Builtin{
		"doc": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			uri := arg0String(args)
			if ctx.Resolve == nil {
				return nil, dynErrf("doc(%q): no document resolver configured", uri)
			}
			d, err := ctx.Resolve(uri)
			if err != nil {
				return nil, dynErrf("doc(%q): %v", uri, err)
			}
			if rec != nil {
				rec.Event(explain.KindDoc, uri)
			}
			return Sequence{d}, nil
		}},
		"contains": {2, 2, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{strings.Contains(argString(args, 0), argString(args, 1))}, nil
		}},
		"starts-with": {2, 2, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{strings.HasPrefix(argString(args, 0), argString(args, 1))}, nil
		}},
		"ends-with": {2, 2, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{strings.HasSuffix(argString(args, 0), argString(args, 1))}, nil
		}},
		"substring": {2, 3, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			s := argString(args, 0)
			start, ok := itemNumber(argString(args, 1))
			if !ok {
				return nil, dynErrf("substring: non-numeric start")
			}
			from := int(start) - 1
			if from < 0 {
				from = 0
			}
			if from > len(s) {
				return Sequence{""}, nil
			}
			if len(args) == 3 {
				n, ok := itemNumber(argString(args, 2))
				if !ok {
					return nil, dynErrf("substring: non-numeric length")
				}
				to := from + int(n)
				if to > len(s) {
					to = len(s)
				}
				if to < from {
					to = from
				}
				return Sequence{s[from:to]}, nil
			}
			return Sequence{s[from:]}, nil
		}},
		"substring-before": {2, 2, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			s, sep := argString(args, 0), argString(args, 1)
			if i := strings.Index(s, sep); i >= 0 {
				return Sequence{s[:i]}, nil
			}
			return Sequence{""}, nil
		}},
		"substring-after": {2, 2, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			s, sep := argString(args, 0), argString(args, 1)
			if i := strings.Index(s, sep); i >= 0 {
				return Sequence{s[i+len(sep):]}, nil
			}
			return Sequence{""}, nil
		}},
		"string-length": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{float64(len(arg0String(args)))}, nil
		}},
		"upper-case": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{strings.ToUpper(arg0String(args))}, nil
		}},
		"lower-case": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{strings.ToLower(arg0String(args))}, nil
		}},
		"normalize-space": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{strings.Join(strings.Fields(arg0String(args)), " ")}, nil
		}},
		"translate": {3, 3, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			s, from, to := argString(args, 0), argString(args, 1), argString(args, 2)
			fr, tr := []rune(from), []rune(to)
			var b strings.Builder
			for _, r := range s {
				idx := -1
				for i, f := range fr {
					if f == r {
						idx = i
						break
					}
				}
				if idx < 0 {
					b.WriteRune(r)
				} else if idx < len(tr) {
					b.WriteRune(tr[idx])
				}
			}
			return Sequence{b.String()}, nil
		}},
		"concat": {2, -1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			var b strings.Builder
			for i := range args {
				b.WriteString(argString(args, i))
			}
			return Sequence{b.String()}, nil
		}},
		"string-join": {2, 2, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			sep := argString(args, 1)
			parts := make([]string, len(args[0]))
			for i, item := range args[0] {
				parts[i] = ItemString(item)
			}
			return Sequence{strings.Join(parts, sep)}, nil
		}},
		"string": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{arg0String(args)}, nil
		}},
		"number": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			if len(args[0]) == 0 {
				return nil, nil
			}
			n, ok := itemNumber(args[0][0])
			if !ok {
				return nil, dynErrf("number(%q): not numeric", ItemString(args[0][0]))
			}
			return Sequence{n}, nil
		}},
		"count": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{float64(len(args[0]))}, nil
		}},
		"sum": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			total := 0.0
			for _, item := range args[0] {
				n, ok := itemNumber(item)
				if !ok {
					return nil, dynErrf("sum: non-numeric item %q", ItemString(item))
				}
				total += n
			}
			return Sequence{total}, nil
		}},
		"avg": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			if len(args[0]) == 0 {
				return nil, nil
			}
			total := 0.0
			for _, item := range args[0] {
				n, ok := itemNumber(item)
				if !ok {
					return nil, dynErrf("avg: non-numeric item %q", ItemString(item))
				}
				total += n
			}
			return Sequence{total / float64(len(args[0]))}, nil
		}},
		"min": {1, 1, extremum(func(a, b float64) bool { return a < b })},
		"max": {1, 1, extremum(func(a, b float64) bool { return a > b })},
		"distinct-values": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			seen := map[string]bool{}
			var out Sequence
			for _, item := range args[0] {
				s := ItemString(item)
				if !seen[s] {
					seen[s] = true
					out = append(out, s)
				}
			}
			return out, nil
		}},
		"not": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{!EffectiveBool(args[0])}, nil
		}},
		"true": {0, 0, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{true}, nil
		}},
		"false": {0, 0, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{false}, nil
		}},
		"exists": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{len(args[0]) > 0}, nil
		}},
		"empty": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			return Sequence{len(args[0]) == 0}, nil
		}},
		"name": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			if len(args[0]) == 0 {
				return Sequence{""}, nil
			}
			switch v := args[0][0].(type) {
			case *xmldom.Element:
				return Sequence{v.Name}, nil
			case AttrRef:
				return Sequence{v.Name}, nil
			default:
				return Sequence{""}, nil
			}
		}},
		"local-name": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			if len(args[0]) == 0 {
				return Sequence{""}, nil
			}
			if el, ok := args[0][0].(*xmldom.Element); ok {
				return Sequence{el.LocalName()}, nil
			}
			return Sequence{""}, nil
		}},
		"data": {1, 1, func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
			out := make(Sequence, len(args[0]))
			for i, item := range args[0] {
				out[i] = ItemString(item)
			}
			return out, nil
		}},
	}
}

func extremum(better func(a, b float64) bool) BuiltinFunc {
	return func(ctx *Context, rec *explain.Recorder, args []Sequence) (Sequence, error) {
		if len(args[0]) == 0 {
			return nil, nil
		}
		best, ok := itemNumber(args[0][0])
		if !ok {
			return nil, dynErrf("min/max: non-numeric item")
		}
		for _, item := range args[0][1:] {
			n, ok := itemNumber(item)
			if !ok {
				return nil, dynErrf("min/max: non-numeric item")
			}
			if better(n, best) {
				best = n
			}
		}
		return Sequence{best}, nil
	}
}
