package minidb

import (
	"fmt"
	"strings"
	"sync"
)

// Table is an in-memory relation: named columns and rows of values.
type Table struct {
	Name    string
	Columns []string
	Rows    [][]Value

	// eqIdx holds lazily built per-column equality indexes consulted by
	// single-table WHERE scans; see eqIndexFor.
	idxMu sync.Mutex
	eqIdx map[int]*eqIndex
}

// NewTable creates an empty table with the given columns.
func NewTable(name string, columns ...string) *Table {
	return &Table{Name: name, Columns: columns}
}

// Insert appends one row; the value count must match the column count.
func (t *Table) Insert(vals ...Value) error {
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("minidb: table %s has %d columns, got %d values", t.Name, len(t.Columns), len(vals))
	}
	t.Rows = append(t.Rows, vals)
	return nil
}

// Func is a user-defined function — the minidb counterpart of Cohera's
// C-language UDFs. Complexity is the THALIA scoring weight the function's
// author declares (1 low, 2 medium, 3 high).
type Func struct {
	Name       string
	Complexity int
	Fn         func(args []Value) (Value, error)
}

// DB is a database: tables, views, and registered functions.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*SelectStmt
	funcs  map[string]*Func
	// stmts is the prepared-statement cache: SELECT text parsed once per
	// database. Parsed statements are immutable during execution, so one
	// statement may serve concurrent queries. Parse errors are never cached.
	stmts map[string]*SelectStmt
	// Called tallies UDF invocations by name, feeding THALIA's
	// integration-effort accounting.
	Called map[string]int
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		tables: map[string]*Table{},
		views:  map[string]*SelectStmt{},
		funcs:  map[string]*Func{},
		stmts:  map[string]*SelectStmt{},
		Called: map[string]int{},
	}
}

// CreateTable registers a table; an existing table of the same name is
// replaced.
func (db *DB) CreateTable(t *Table) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[strings.ToLower(t.Name)] = t
}

// Table returns the named base table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("minidb: no table %q", name)
	}
	return t, nil
}

// CreateView registers a named view over a SELECT statement — the mechanism
// Cohera used for local-to-global schema mappings.
func (db *DB) CreateView(name, query string) error {
	stmt, err := ParseSelect(query)
	if err != nil {
		return fmt.Errorf("minidb: view %s: %w", name, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.views[strings.ToLower(name)] = stmt
	return nil
}

// Register adds a user-defined function.
func (db *DB) Register(f *Func) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.funcs[strings.ToLower(f.Name)] = f
}

// Functions returns the registered UDFs keyed by lower-case name.
func (db *DB) Functions() map[string]*Func {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]*Func, len(db.funcs))
	for k, v := range db.funcs {
		out[k] = v
	}
	return out
}

// maxViewDepth bounds view-over-view nesting, so a cyclic view definition
// (a view referencing itself, directly or indirectly) fails with a clear
// error instead of recursing forever.
const maxViewDepth = 32

// resolve returns the rows and columns behind a table or view name.
func (db *DB) resolve(name string, depth int) (*Table, error) {
	if depth > maxViewDepth {
		return nil, fmt.Errorf("minidb: view nesting deeper than %d (cyclic view definition?) at %q", maxViewDepth, name)
	}
	db.mu.RLock()
	t, isTable := db.tables[strings.ToLower(name)]
	v, isView := db.views[strings.ToLower(name)]
	db.mu.RUnlock()
	if isTable {
		return t, nil
	}
	if isView {
		res, err := db.execSelect(v, depth+1)
		if err != nil {
			return nil, fmt.Errorf("minidb: view %s: %w", name, err)
		}
		vt := NewTable(name, res.Columns...)
		vt.Rows = res.Rows
		return vt, nil
	}
	return nil, fmt.Errorf("minidb: no table or view %q", name)
}

// Result is the outcome of a query.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// Query executes a SELECT statement, parsing it through the prepared-
// statement cache: each distinct SQL text is parsed once per database, so
// the repeated identical queries a benchmark run issues skip the parser.
func (db *DB) Query(sql string) (*Result, error) {
	db.mu.RLock()
	stmt := db.stmts[sql]
	db.mu.RUnlock()
	if stmt == nil {
		var err error
		stmt, err = ParseSelect(sql)
		if err != nil {
			return nil, err
		}
		db.mu.Lock()
		db.stmts[sql] = stmt
		db.mu.Unlock()
	}
	return db.execSelect(stmt, 0)
}

// StmtCacheLen reports how many distinct SELECT texts have been prepared.
func (db *DB) StmtCacheLen() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.stmts)
}
