package xsd

import (
	"fmt"
	"strings"

	"thalia/internal/xmldom"
)

// ValidationError describes one violation of a schema by an instance.
type ValidationError struct {
	// Path locates the offending node, e.g. "umd/Course/Section".
	Path string
	// Msg describes the violation.
	Msg string
}

// Error implements error.
func (e *ValidationError) Error() string { return e.Path + ": " + e.Msg }

// Validate checks doc against the schema and returns every violation found.
// A nil slice means the document is valid.
func (s *Schema) Validate(doc *xmldom.Document) []*ValidationError {
	if s.Root == nil {
		return []*ValidationError{{Path: "", Msg: "schema has no root declaration"}}
	}
	if doc == nil || doc.Root == nil {
		return []*ValidationError{{Path: "", Msg: "document has no root element"}}
	}
	var errs []*ValidationError
	if doc.Root.Name != s.Root.Name {
		errs = append(errs, &ValidationError{
			Path: doc.Root.Name,
			Msg:  fmt.Sprintf("root element is %q, schema declares %q", doc.Root.Name, s.Root.Name),
		})
		return errs
	}
	validateElement(s.Root, doc.Root, &errs)
	return errs
}

func validateElement(d *ElementDecl, el *xmldom.Element, errs *[]*ValidationError) {
	path := el.Path()

	// Attributes.
	for _, ad := range d.Attributes {
		v, ok := el.Attr(ad.Name)
		if !ok {
			if ad.Required {
				*errs = append(*errs, &ValidationError{Path: path, Msg: fmt.Sprintf("missing required attribute %q", ad.Name)})
			}
			continue
		}
		if msg := checkSimple(ad.Type, v); msg != "" {
			*errs = append(*errs, &ValidationError{Path: path, Msg: fmt.Sprintf("attribute %q: %s", ad.Name, msg)})
		}
	}
	for _, a := range el.Attrs {
		if strings.HasPrefix(a.Name, "xmlns") {
			continue
		}
		if d.Attribute(a.Name) == nil {
			*errs = append(*errs, &ValidationError{Path: path, Msg: fmt.Sprintf("undeclared attribute %q", a.Name)})
		}
	}

	if d.Type != TypeComplex {
		if len(el.ChildElements()) > 0 {
			*errs = append(*errs, &ValidationError{Path: path, Msg: "child elements not allowed in simple content"})
			return
		}
		if msg := checkSimple(d.Type, el.Text()); msg != "" {
			*errs = append(*errs, &ValidationError{Path: path, Msg: msg})
		}
		return
	}

	if !d.Mixed && el.Text() != "" && len(d.Children) > 0 {
		*errs = append(*errs, &ValidationError{Path: path, Msg: "character data not allowed in element-only content"})
	}

	counts := map[string]int{}
	for _, c := range el.ChildElements() {
		counts[c.Name]++
		cd := d.Child(c.Name)
		if cd == nil {
			*errs = append(*errs, &ValidationError{Path: path, Msg: fmt.Sprintf("undeclared element %q", c.Name)})
			continue
		}
		validateElement(cd, c, errs)
	}
	for _, cd := range d.Children {
		n := counts[cd.Name]
		if n < cd.MinOccurs {
			*errs = append(*errs, &ValidationError{Path: path, Msg: fmt.Sprintf("element %q occurs %d time(s), minimum is %d", cd.Name, n, cd.MinOccurs)})
		}
		if cd.MaxOccurs != Unbounded && n > cd.MaxOccurs {
			*errs = append(*errs, &ValidationError{Path: path, Msg: fmt.Sprintf("element %q occurs %d time(s), maximum is %d", cd.Name, n, cd.MaxOccurs)})
		}
	}
}

// checkSimple validates a text value against a simple type, returning a
// description of the problem or "".
func checkSimple(t Type, v string) string {
	v = strings.TrimSpace(v)
	switch t {
	case TypeInteger:
		if v == "" {
			return ""
		}
		if nt, ok := numericType(v); !ok || nt != TypeInteger {
			return fmt.Sprintf("value %q is not an integer", v)
		}
	case TypeDecimal:
		if v == "" {
			return ""
		}
		// Every xs:integer is also an xs:decimal.
		if _, ok := numericType(v); !ok {
			return fmt.Sprintf("value %q is not a decimal", v)
		}
	case TypeAnyURI:
		if v == "" {
			return ""
		}
		if !strings.Contains(v, "://") {
			return fmt.Sprintf("value %q is not a URI", v)
		}
	}
	return ""
}
