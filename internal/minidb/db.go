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
// C-language UDFs.
type Func struct {
	Name string
	Fn   func(args []Value) (Value, error)
}

// DB is a database: tables, views, and registered functions.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*SelectStmt
	funcs  map[string]*Func
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		tables: map[string]*Table{},
		views:  map[string]*SelectStmt{},
		funcs:  map[string]*Func{},
	}
}

// CreateTable registers a table; an existing table of the same name is
// replaced.
func (db *DB) CreateTable(t *Table) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[strings.ToLower(t.Name)] = t
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

// Query parses and executes a SELECT statement.
func (db *DB) Query(sql string) (*Result, error) {
	stmt, err := ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return db.execSelect(stmt, 0)
}
