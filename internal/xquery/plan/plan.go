// Package plan compiles parsed XQuery expressions into reusable executable
// plans: closure trees with variables resolved to integer slots at compile
// time and builtins pre-resolved. A variable bound to one item of a
// sequence (a for variable, a quantified variable, a predicate's context
// item) holds a full-capacity one-item window of that sequence, so binding
// allocates nothing; no compiled closure writes into a Sequence it did not
// allocate, which is what makes sharing the input's backing array sound.
//
// Programs evaluate XQuery only through plans. The tree-walking evaluator
// in internal/xquery remains the reference implementation, which only
// tests run. A plan must produce exactly the interpreter's result — the
// same Sequence on success and the same *xquery.DynamicError class and
// message on failure — for every input xquery.Parse accepts. That contract
// is enforced three ways: the differential conformance suite in
// internal/benchmark (q1–q12 × all systems × all 35 catalogs), the
// FuzzCompileEval fuzz target in this package, and the plancoverage
// thalia-vet analyzer, which fails the build when an AST node kind has no
// compile case here.
package plan

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"thalia/internal/explain"
	"thalia/internal/xquery"
)

// Plan is a compiled, reusable, goroutine-safe query: all per-evaluation
// state lives in slots allocated by Eval, so one Plan may be evaluated
// concurrently against many contexts.
type Plan struct {
	root   compiled
	nSlots int
	// expr is the compiled expression. Dump compiles it again with the
	// dump on, so Compile itself renders no text.
	expr xquery.Expr
	// evals counts evaluations; surfaced as the "evals" attr of the
	// explain plan span so traces show plan reuse.
	evals atomic.Int64
}

// runtimes recycles per-evaluation runtimes across Eval calls of every
// plan — the hot loop's dominant allocation before pooling, per bench
// --profile heap output. One pool serves all plans, so a one-shot plan
// registers no pool of its own; a runtime's slot slice is resliced to each
// plan's slot count, growing when it is too short.
var runtimes = sync.Pool{New: func() any { return new(runtime) }}

// CompileQuery parses src and compiles it in one step. Parse failures are
// returned unchanged (*xquery.ParseError), so callers see exactly the
// interpreter's syntax errors.
func CompileQuery(src string) (*Plan, error) {
	e, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(e)
}

// Compile compiles a parsed expression into a plan.
func Compile(e xquery.Expr) (*Plan, error) {
	c := &compiler{}
	root, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	return &Plan{root: root, nSlots: c.nSlots, expr: e}, nil
}

// Eval runs the plan against ctx. When ctx.Explain is set, the evaluation
// is wrapped in a "plan" span whose evals attr reports how many times this
// plan has been used — cache reuse made visible in traces.
//
// Per-evaluation runtimes are drawn from a pool and returned with their
// slots cleared. A result may share a backing array with a sequence the
// evaluation read, or with a slot's window of one, but no compiled closure
// writes into a Sequence it did not allocate, and the slot array itself
// holds only slice headers: clearing and recycling it changes no result,
// so pooling is invisible to callers and safe under concurrent Eval.
func (p *Plan) Eval(ctx *xquery.Context) (xquery.Sequence, error) {
	rt := runtimes.Get().(*runtime)
	if cap(rt.slots) < p.nSlots {
		rt.slots = make([]xquery.Sequence, p.nSlots)
	}
	rt.slots = rt.slots[:p.nSlots]
	rt.ctx, rt.rec = ctx, ctx.Explain
	n := p.evals.Add(1)
	if rt.rec != nil {
		sp := rt.rec.Begin(explain.KindPlan, "plan",
			explain.A("evals", strconv.FormatInt(n, 10)),
			explain.A("slots", strconv.Itoa(p.nSlots)))
		defer sp.End()
	}
	out, err := p.root(rt)
	rt.ctx, rt.rec = nil, nil
	clear(rt.slots)
	runtimes.Put(rt)
	return out, err
}

// Dump renders the compiled plan as an indented textual tree — the format
// committed as golden files under testdata/plan/ so plan-shape regressions
// show up as readable diffs.
func (p *Plan) Dump() string {
	c := &compiler{dump: true}
	// Compile succeeded on p.expr, so compiling it again cannot fail.
	_, _ = c.compile(p.expr)
	return strings.Join(c.lines, "\n") + "\n"
}

// runtime is the per-evaluation state threaded through compiled closures.
type runtime struct {
	ctx   *xquery.Context
	rec   *explain.Recorder
	slots []xquery.Sequence
}

// compiled is one compiled expression: a closure from runtime to a value.
type compiled func(rt *runtime) (xquery.Sequence, error)

// Cache is a concurrency-safe plan cache keyed by query source text: each
// distinct query is parsed and compiled once per cache lifetime.
// Compilation failures are returned but never cached, matching the
// errors-never-cached convention used throughout the repo.
type Cache struct {
	mu     sync.RWMutex
	m      map[string]*Plan
	hits   atomic.Int64
	misses atomic.Int64
}

// NewCache returns an empty plan cache.
func NewCache() *Cache {
	return &Cache{m: make(map[string]*Plan)}
}

// Get returns the cached plan for src, compiling and caching it on first
// use. Concurrent first uses may compile twice; one result wins, which is
// harmless because plans are immutable and equivalent.
func (c *Cache) Get(src string) (*Plan, error) {
	c.mu.RLock()
	p := c.m[src]
	c.mu.RUnlock()
	if p != nil {
		c.hits.Add(1)
		return p, nil
	}
	p, err := CompileQuery(src)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev, ok := c.m[src]; ok {
		p = prev
	} else {
		c.m[src] = p
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return p, nil
}

// Stats returns how many Get calls hit and missed the cache.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// defaultCache is the process-wide plan cache behind EvalQuery: each
// distinct query text is parsed and compiled once per process, which is the
// reuse pattern repeated facade and CLI evaluations exhibit.
var defaultCache = NewCache()

// EvalQuery evaluates src through the process-wide plan cache, so repeated
// evaluations of the same query text skip the parser and compiler. Parse
// and compile failures are returned unchanged and never cached.
func EvalQuery(src string, ctx *xquery.Context) (xquery.Sequence, error) {
	p, err := defaultCache.Get(src)
	if err != nil {
		return nil, err
	}
	return p.Eval(ctx)
}

// DefaultCacheStats reports the process-wide plan cache's hit/miss counts.
func DefaultCacheStats() (hits, misses int64) {
	return defaultCache.Stats()
}
