// Package xsd implements the subset of XML Schema that THALIA uses to
// describe extracted course catalogs. The paper's testbed publishes, for each
// source, both the extracted XML document and "the corresponding schema file"
// (Figure 3); the schema is derived from the instance and kept as close to
// the original catalog structure as possible, deliberately preserving
// semantic heterogeneities in element names.
//
// The package provides a schema model, inference of a schema from one or
// more instance documents, serialization to xs:... syntax, parsing of that
// syntax back, and validation of instances against a schema.
package xsd

import (
	"fmt"
	"strings"

	"thalia/internal/xmldom"
)

// Type is the value type of an element's or attribute's content.
type Type int

// Supported simple and complex types.
const (
	// TypeString is xs:string, the default for character content.
	TypeString Type = iota
	// TypeInteger is xs:integer.
	TypeInteger
	// TypeDecimal is xs:decimal.
	TypeDecimal
	// TypeAnyURI is xs:anyURI; inferred for http(s) links, which the TESS
	// wrapper stores in place of deep-extracted pages.
	TypeAnyURI
	// TypeComplex marks an element with child elements or attributes.
	TypeComplex
	// TypeEmpty marks an element observed only with no content at all; it
	// models the "value does not exist" flavour of missing data (case 6).
	TypeEmpty
)

// String returns the xs: name of the type.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "xs:string"
	case TypeInteger:
		return "xs:integer"
	case TypeDecimal:
		return "xs:decimal"
	case TypeAnyURI:
		return "xs:anyURI"
	case TypeComplex:
		return "complexType"
	case TypeEmpty:
		return "xs:string"
	default:
		return "xs:string"
	}
}

// ParseType maps an xs: type name to a Type. Unknown names map to TypeString.
func ParseType(name string) Type {
	switch name {
	case "xs:integer", "xs:int", "xs:long":
		return TypeInteger
	case "xs:decimal", "xs:double", "xs:float":
		return TypeDecimal
	case "xs:anyURI":
		return TypeAnyURI
	default:
		return TypeString
	}
}

// Unbounded is the MaxOccurs value meaning "unbounded".
const Unbounded = -1

// AttrDecl declares an attribute of an element.
type AttrDecl struct {
	Name     string
	Type     Type
	Required bool
}

// ElementDecl declares an element: its content type, children (for complex
// content), attributes, and occurrence constraints within its parent.
type ElementDecl struct {
	Name       string
	Type       Type
	Children   []*ElementDecl
	Attributes []*AttrDecl
	MinOccurs  int // 0 or 1
	MaxOccurs  int // 1 or Unbounded
	// Mixed reports whether complex content may also contain character data,
	// as in Brown's Title column where a hyperlink is embedded in the title
	// string (the union-type heterogeneity, case 3).
	Mixed bool
}

// Schema describes one source's extracted XML document.
type Schema struct {
	// Source is the short name of the catalog source (e.g. "brown").
	Source string
	// Root is the declaration of the document element.
	Root *ElementDecl
}

// Child returns the child declaration with the given name, or nil.
func (e *ElementDecl) Child(name string) *ElementDecl {
	for _, c := range e.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Attribute returns the attribute declaration with the given name, or nil.
func (e *ElementDecl) Attribute(name string) *AttrDecl {
	for _, a := range e.Attributes {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// InferValueType guesses the simple type of a text value the way the
// testbed's schema extractor does: integers, decimals, URLs, else string.
func InferValueType(v string) Type {
	v = strings.TrimSpace(v)
	if v == "" {
		return TypeEmpty
	}
	if strings.HasPrefix(v, "http://") || strings.HasPrefix(v, "https://") {
		return TypeAnyURI
	}
	if t, ok := numericType(v); ok {
		return t
	}
	return TypeString
}

// numericType reports whether v is in the lexical space of xs:integer,
// [+-]?\d+, or else of xs:decimal, [+-]?(\d+(\.\d*)?|\.\d+). Both types
// are unbounded, and neither admits an exponent, NaN, infinity, a hex
// float or a digit separator.
func numericType(v string) (Type, bool) {
	i := 0
	if i < len(v) && (v[i] == '+' || v[i] == '-') {
		i++
	}
	intDigits := digits(v[i:])
	i += intDigits
	if i == len(v) {
		return TypeInteger, intDigits > 0
	}
	if v[i] != '.' {
		return TypeString, false
	}
	i++
	fracDigits := digits(v[i:])
	return TypeDecimal, i+fracDigits == len(v) && intDigits+fracDigits > 0
}

// digits returns the length of the run of ASCII digits that starts s.
func digits(s string) int {
	n := 0
	for n < len(s) && '0' <= s[n] && s[n] <= '9' {
		n++
	}
	return n
}

// widen returns the least general type covering both a and b.
func widen(a, b Type) Type {
	if a == b {
		return a
	}
	if a == TypeEmpty {
		return b
	}
	if b == TypeEmpty {
		return a
	}
	if (a == TypeInteger && b == TypeDecimal) || (a == TypeDecimal && b == TypeInteger) {
		return TypeDecimal
	}
	if a == TypeComplex || b == TypeComplex {
		return TypeComplex
	}
	return TypeString
}

// Infer derives a schema from one or more instance documents of the same
// source. Occurrence constraints reflect what was observed: an element seen
// more than once under a single parent becomes maxOccurs="unbounded"; an
// element missing under some parent instance becomes minOccurs="0" — the
// schema-level footprint of the Nulls heterogeneity (case 6).
func Infer(source string, docs ...*xmldom.Document) (*Schema, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("xsd: infer: no documents")
	}
	root := docs[0].Root.Name
	b := &inferrer{seen: make(map[*ElementDecl]int), sawText: make(map[*ElementDecl]bool)}
	decl := &ElementDecl{Name: root, MinOccurs: 1, MaxOccurs: 1, Type: TypeEmpty}
	for _, d := range docs {
		if d.Root.Name != root {
			return nil, fmt.Errorf("xsd: infer: inconsistent roots %q and %q", root, d.Root.Name)
		}
		b.merge(decl, d.Root)
	}
	return &Schema{Source: source, Root: decl}, nil
}

// inferrer accumulates observations across instances. seen counts how many
// instances each declaration has been merged from, so that a child first
// appearing in a later instance can be marked optional; sawText records
// declarations observed with non-empty character data, so that a
// declaration promoted to complex content by a later instance is marked
// mixed.
type inferrer struct {
	seen    map[*ElementDecl]int
	sawText map[*ElementDecl]bool
}

// merge folds one observed element instance into the declaration.
func (b *inferrer) merge(decl *ElementDecl, el *xmldom.Element) {
	prior := b.seen[decl]
	b.seen[decl] = prior + 1

	// Attributes: required iff present in every observed instance.
	present := map[string]bool{}
	for _, a := range el.Attrs {
		present[a.Name] = true
		ad := decl.Attribute(a.Name)
		if ad == nil {
			ad = &AttrDecl{Name: a.Name, Type: InferValueType(a.Value), Required: prior == 0}
			decl.Attributes = append(decl.Attributes, ad)
		} else {
			ad.Type = widen(ad.Type, InferValueType(a.Value))
		}
	}
	for _, ad := range decl.Attributes {
		if !present[ad.Name] {
			ad.Required = false
		}
	}

	children := el.ChildElements()
	hasText := el.Text() != ""
	if hasText {
		b.sawText[decl] = true
	}
	if len(children) == 0 && len(el.Attrs) == 0 && decl.Type != TypeComplex {
		decl.Type = widen(decl.Type, InferValueType(el.Text()))
		return
	}
	// Complex content. If any instance (this or an earlier one) carried
	// character data, the content model is mixed.
	wasSimpleWithText := decl.Type != TypeComplex && decl.Type != TypeEmpty
	decl.Type = TypeComplex
	if b.sawText[decl] || wasSimpleWithText {
		decl.Mixed = true
	}
	if len(children) == 0 {
		// This instance contributes no children; any previously declared
		// children are therefore optional.
		for _, cd := range decl.Children {
			cd.MinOccurs = 0
		}
		return
	}
	counts := map[string]int{}
	for _, c := range children {
		counts[c.Name]++
	}
	for _, c := range children {
		cd := decl.Child(c.Name)
		if cd == nil {
			cd = &ElementDecl{Name: c.Name, MinOccurs: 1, MaxOccurs: 1, Type: TypeEmpty}
			if prior > 0 {
				// Earlier instances of this parent lacked the child.
				cd.MinOccurs = 0
			}
			decl.Children = append(decl.Children, cd)
		}
		if counts[c.Name] > 1 {
			cd.MaxOccurs = Unbounded
		}
		b.merge(cd, c)
	}
	// Children declared earlier but absent from this instance are optional.
	for _, cd := range decl.Children {
		if counts[cd.Name] == 0 {
			cd.MinOccurs = 0
		}
	}
}
