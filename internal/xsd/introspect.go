package xsd

import "sort"

// This file holds the introspection helpers the static analysis layer
// (internal/analysis) uses to resolve query path steps against a schema:
// walking every declaration with its slash path, finding declarations by
// name anywhere in the tree, and collecting the schema's name vocabulary
// for misspelling suggestions.

// WalkDecls visits every element declaration in the schema depth-first,
// passing the slash path from the root (e.g. "umd/Course/Section/Time").
// Returning false from f skips the declaration's children.
func (s *Schema) WalkDecls(f func(path string, d *ElementDecl) bool) {
	if s.Root == nil {
		return
	}
	var walk func(path string, d *ElementDecl)
	walk = func(path string, d *ElementDecl) {
		if !f(path, d) {
			return
		}
		for _, c := range d.Children {
			walk(path+"/"+c.Name, c)
		}
	}
	walk(s.Root.Name, s.Root)
}

// Descendants returns the declarations with the given name in the subtree
// rooted at e (excluding e itself); "*" matches every declaration.
func (e *ElementDecl) Descendants(name string) []*ElementDecl {
	var out []*ElementDecl
	var walk func(d *ElementDecl)
	walk = func(d *ElementDecl) {
		for _, c := range d.Children {
			if name == "*" || c.Name == name {
				out = append(out, c)
			}
			walk(c)
		}
	}
	walk(e)
	return out
}

// Vocabulary returns the sorted, de-duplicated set of every element and
// attribute name declared in the schema. Attribute names are prefixed with
// "@". The analyzer diffs dead path steps against this set to distinguish
// misspellings from genuinely absent concepts.
func (s *Schema) Vocabulary() []string {
	seen := map[string]bool{}
	s.WalkDecls(func(path string, d *ElementDecl) bool {
		seen[d.Name] = true
		for _, a := range d.Attributes {
			seen["@"+a.Name] = true
		}
		return true
	})
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// LeafType reports the simple content type of a declaration: for a complex
// declaration it is the widened type of its simple-typed descendants when
// they agree, else TypeString. The analyzer uses it to decide whether two
// comparison operands can unify under the schema.
func (e *ElementDecl) LeafType() Type {
	if e.Type != TypeComplex {
		return e.Type
	}
	t := TypeEmpty
	for _, c := range e.Children {
		t = widen(t, c.LeafType())
	}
	return t
}
