package minidb

import (
	"fmt"
	"sort"
	"strings"
)

// binding maps qualified and unqualified column names to positions in the
// joined row.
type binding struct {
	cols []boundCol
	// memo caches successful ColRef resolutions for this binding. A binding
	// lives for one execSelect call on one goroutine, but the same parsed
	// ColRef nodes are evaluated once per scanned row — the memo turns the
	// per-row name search (and its case folding) into a pointer lookup.
	memo map[*ColRef]int
}

// resolve is binding.lookup memoized by ColRef identity; only successes are
// cached, so error paths stay identical to lookup.
func (b *binding) resolve(c *ColRef) (int, error) {
	if i, ok := b.memo[c]; ok {
		return i, nil
	}
	i, err := b.lookup(c.Table, c.Column)
	if err != nil {
		return 0, err
	}
	if b.memo == nil {
		b.memo = make(map[*ColRef]int)
	}
	b.memo[c] = i
	return i, nil
}

type boundCol struct {
	table  string // alias (or table name), lower case
	column string // lower case
	name   string // original column spelling, for projection
}

func (b *binding) lookup(table, column string) (int, error) {
	table = strings.ToLower(table)
	column = strings.ToLower(column)
	found := -1
	for i, c := range b.cols {
		if c.column != column {
			continue
		}
		if table != "" && c.table != table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("minidb: ambiguous column %q", column)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return 0, fmt.Errorf("minidb: no column %s.%s", table, column)
		}
		return 0, fmt.Errorf("minidb: no column %q", column)
	}
	return found, nil
}

// execSelect runs a parsed SELECT against the database; depth counts view
// expansions to bound cyclic view definitions.
func (db *DB) execSelect(stmt *SelectStmt, depth int) (*Result, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("minidb: SELECT without FROM")
	}
	// Resolve FROM tables/views and build the joined binding.
	bind := &binding{}
	var tables []*Table
	for _, ref := range stmt.From {
		t, err := db.resolve(ref.Table, depth)
		if err != nil {
			return nil, err
		}
		alias := ref.Alias
		if alias == "" {
			alias = ref.Table
		}
		for _, col := range t.Columns {
			bind.cols = append(bind.cols, boundCol{
				table:  strings.ToLower(alias),
				column: strings.ToLower(col),
				name:   col,
			})
		}
		tables = append(tables, t)
	}

	// The nested loop fills one joined-row buffer per SELECT and evaluates
	// WHERE on it in place. The next combination overwrites the buffer, so
	// only the rows WHERE keeps are copied out.
	var joined [][]Value
	var scan func(i int, acc []Value) error
	scan = func(i int, acc []Value) error {
		if i == len(tables) {
			if stmt.Where != nil {
				v, err := db.evalSQL(stmt.Where, bind, acc)
				if err != nil {
					return err
				}
				if v.IsNull() || !v.AsBool() {
					return nil
				}
			}
			joined = append(joined, append([]Value(nil), acc...))
			return nil
		}
		for _, r := range tables[i].Rows {
			if err := scan(i+1, append(acc, r...)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := scan(0, make([]Value, 0, len(bind.cols))); err != nil {
		return nil, err
	}

	// ORDER BY before projection so expressions can reference any column.
	if stmt.Order != nil {
		type keyed struct {
			row []Value
			key Value
		}
		ks := make([]keyed, len(joined))
		for i, row := range joined {
			k, err := db.evalSQL(stmt.Order.Expr, bind, row)
			if err != nil {
				return nil, err
			}
			ks[i] = keyed{row: row, key: k}
		}
		sort.SliceStable(ks, func(i, j int) bool {
			less := Compare(ks[i].key, ks[j].key) < 0
			if stmt.Order.Desc {
				return Compare(ks[j].key, ks[i].key) < 0
			}
			return less
		})
		for i := range ks {
			joined[i] = ks[i].row
		}
	}

	// Projection.
	res := &Result{}
	for _, item := range stmt.Items {
		if item.Star {
			for _, c := range bind.cols {
				res.Columns = append(res.Columns, c.name)
			}
			continue
		}
		res.Columns = append(res.Columns, projName(item))
	}
	for _, row := range joined {
		var out []Value
		for _, item := range stmt.Items {
			if item.Star {
				out = append(out, row...)
				continue
			}
			v, err := db.evalSQL(item.Expr, bind, row)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		res.Rows = append(res.Rows, out)
	}

	if stmt.Distinct {
		seen := map[string]bool{}
		var dedup [][]Value
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = fmt.Sprintf("%d:%s", v.Kind, v.String())
			}
			key := strings.Join(parts, "\x00")
			if !seen[key] {
				seen[key] = true
				dedup = append(dedup, row)
			}
		}
		res.Rows = dedup
	}
	return res, nil
}

// projName derives a result column name from a projection item.
func projName(item SelectItem) string {
	if item.As != "" {
		return item.As
	}
	switch e := item.Expr.(type) {
	case *ColRef:
		return e.Column
	case *SQLCall:
		return e.Name
	default:
		return "expr"
	}
}

// evalSQL evaluates an expression against one joined row.
func (db *DB) evalSQL(e SQLExpr, bind *binding, row []Value) (Value, error) {
	switch x := e.(type) {
	case *SQLLit:
		return x.Val, nil
	case *ColRef:
		i, err := bind.resolve(x)
		if err != nil {
			return Null, err
		}
		return row[i], nil
	case *SQLIsNull:
		v, err := db.evalSQL(x.X, bind, row)
		if err != nil {
			return Null, err
		}
		if x.Not {
			return Bool(!v.IsNull()), nil
		}
		return Bool(v.IsNull()), nil
	case *SQLUnary:
		v, err := db.evalSQL(x.X, bind, row)
		if err != nil {
			return Null, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return Null, nil
			}
			return Bool(!v.AsBool()), nil
		case "-":
			n, ok := v.AsNumber()
			if !ok {
				return Null, fmt.Errorf("minidb: cannot negate %q", v)
			}
			return Number(-n), nil
		}
		return Null, fmt.Errorf("minidb: unknown unary %q", x.Op)
	case *SQLBinary:
		return db.evalBinary(x, bind, row)
	case *SQLCall:
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := db.evalSQL(a, bind, row)
			if err != nil {
				return Null, err
			}
			args[i] = v
		}
		return db.call(x.Name, args)
	default:
		return Null, fmt.Errorf("minidb: unhandled expression %T", e)
	}
}

func (db *DB) evalBinary(x *SQLBinary, bind *binding, row []Value) (Value, error) {
	// AND/OR evaluate lazily with three-valued logic collapsed to
	// false-on-null (documented deviation; enough for the testbed).
	switch x.Op {
	case "AND":
		l, err := db.evalSQL(x.L, bind, row)
		if err != nil {
			return Null, err
		}
		if l.IsNull() || !l.AsBool() {
			return Bool(false), nil
		}
		r, err := db.evalSQL(x.R, bind, row)
		if err != nil {
			return Null, err
		}
		return Bool(!r.IsNull() && r.AsBool()), nil
	case "OR":
		l, err := db.evalSQL(x.L, bind, row)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() && l.AsBool() {
			return Bool(true), nil
		}
		r, err := db.evalSQL(x.R, bind, row)
		if err != nil {
			return Null, err
		}
		return Bool(!r.IsNull() && r.AsBool()), nil
	}
	l, err := db.evalSQL(x.L, bind, row)
	if err != nil {
		return Null, err
	}
	r, err := db.evalSQL(x.R, bind, row)
	if err != nil {
		return Null, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null, nil // SQL: comparisons with NULL are unknown
		}
		c := Compare(l, r)
		switch x.Op {
		case "=":
			return Bool(c == 0), nil
		case "<>":
			return Bool(c != 0), nil
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		case ">=":
			return Bool(c >= 0), nil
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Bool(Like(l.String(), r.String())), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Text(l.String() + r.String()), nil
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		ln, lok := l.AsNumber()
		rn, rok := r.AsNumber()
		if !lok || !rok {
			return Null, fmt.Errorf("minidb: arithmetic on non-numeric %q %s %q", l, x.Op, r)
		}
		switch x.Op {
		case "+":
			return Number(ln + rn), nil
		case "-":
			return Number(ln - rn), nil
		case "*":
			return Number(ln * rn), nil
		case "/":
			if rn == 0 {
				return Null, fmt.Errorf("minidb: division by zero")
			}
			return Number(ln / rn), nil
		}
	}
	return Null, fmt.Errorf("minidb: unknown operator %q", x.Op)
}

// call dispatches builtins, then UDFs.
func (db *DB) call(name string, args []Value) (Value, error) {
	switch name {
	case "lower":
		if len(args) != 1 {
			return Null, fmt.Errorf("minidb: lower expects 1 argument")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return Text(strings.ToLower(args[0].String())), nil
	case "upper":
		if len(args) != 1 {
			return Null, fmt.Errorf("minidb: upper expects 1 argument")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return Text(strings.ToUpper(args[0].String())), nil
	case "length":
		if len(args) != 1 {
			return Null, fmt.Errorf("minidb: length expects 1 argument")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return Number(float64(len(args[0].String()))), nil
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	case "trim":
		if len(args) != 1 {
			return Null, fmt.Errorf("minidb: trim expects 1 argument")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return Text(strings.TrimSpace(args[0].String())), nil
	case "substr":
		if len(args) != 3 {
			return Null, fmt.Errorf("minidb: substr expects 3 arguments")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		s := args[0].String()
		from, _ := args[1].AsNumber()
		n, _ := args[2].AsNumber()
		// Clamp the start to [0, len(s)] and the end to [start, len(s)] in
		// float arithmetic: a negative position or length, NaN or one past
		// int's range must not reach the slice.
		start := 0
		if from > 1 {
			start = len(s)
			if from-1 < float64(len(s)) {
				start = int(from) - 1
			}
		}
		end := len(s)
		if n < float64(end-start) {
			end = start + max(int(n), 0)
		}
		return Text(s[start:end]), nil
	}
	db.mu.RLock()
	f, ok := db.funcs[name]
	db.mu.RUnlock()
	if !ok {
		return Null, fmt.Errorf("minidb: unknown function %q", name)
	}
	return f.Fn(args)
}
