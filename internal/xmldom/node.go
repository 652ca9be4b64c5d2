// Package xmldom provides a small, dependency-free XML document model used
// throughout THALIA. Course catalogs extracted by the TESS wrapper, schemas
// inferred from them, benchmark queries, and integrated results are all
// represented as xmldom trees.
//
// The model is deliberately simple: a Document holds a single root Element;
// an Element has a name, ordered attributes, and ordered children; children
// are Elements, Text nodes, or Comments. Namespaces are carried verbatim in
// the node name (e.g. "xs:element") rather than resolved, which mirrors how
// the THALIA testbed's extracted documents use them.
package xmldom

import (
	"fmt"
	"strings"
)

// NodeKind discriminates the concrete type of a Node.
type NodeKind int

// The kinds of nodes a document tree may contain.
const (
	KindElement NodeKind = iota
	KindText
	KindComment
)

// Node is a member of an XML document tree: an *Element, *Text, or *Comment.
type Node interface {
	// Kind reports the concrete kind of the node.
	Kind() NodeKind
	// Parent returns the enclosing element, or nil for a root or detached node.
	Parent() *Element
	// setParent is used internally when nodes are attached to elements.
	setParent(*Element)
}

// Attr is a single attribute on an element. Order is preserved.
type Attr struct {
	Name  string
	Value string
}

// Element is an XML element with ordered attributes and children.
type Element struct {
	Name     string
	Attrs    []Attr
	Children []Node

	parent *Element
}

// Text is a run of character data. Whitespace-only runs between elements are
// dropped by the parser unless they are the only content of an element.
type Text struct {
	Data string

	parent *Element
}

// Comment is an XML comment (without the surrounding markers).
type Comment struct {
	Data string

	parent *Element
}

// Document is a parsed XML document.
type Document struct {
	// Root is the document element. It is never nil for a parsed document.
	Root *Element
}

// Kind implements Node.
func (e *Element) Kind() NodeKind { return KindElement }

// Kind implements Node.
func (t *Text) Kind() NodeKind { return KindText }

// Kind implements Node.
func (c *Comment) Kind() NodeKind { return KindComment }

// Parent implements Node.
func (e *Element) Parent() *Element { return e.parent }

// Parent implements Node.
func (t *Text) Parent() *Element { return t.parent }

// Parent implements Node.
func (c *Comment) Parent() *Element { return c.parent }

func (e *Element) setParent(p *Element) { e.parent = p }
func (t *Text) setParent(p *Element)    { t.parent = p }
func (c *Comment) setParent(p *Element) { c.parent = p }

// NewElement returns a detached element with the given name.
func NewElement(name string) *Element { return &Element{Name: name} }

// NewText returns a detached text node.
func NewText(data string) *Text { return &Text{Data: data} }

// NewDocument returns a document wrapping root.
func NewDocument(root *Element) *Document { return &Document{Root: root} }

// Append attaches children to e in order and returns e for chaining.
func (e *Element) Append(children ...Node) *Element {
	for _, c := range children {
		if c == nil {
			continue
		}
		c.setParent(e)
		e.Children = append(e.Children, c)
	}
	return e
}

// Prepend inserts children at the front of e's child list, in order.
func (e *Element) Prepend(children ...Node) *Element {
	for _, c := range children {
		if c != nil {
			c.setParent(e)
		}
	}
	e.Children = append(append([]Node{}, children...), e.Children...)
	return e
}

// AppendText appends a text child and returns e for chaining.
func (e *Element) AppendText(data string) *Element {
	return e.Append(NewText(data))
}

// SetAttr sets (or replaces) an attribute and returns e for chaining.
func (e *Element) SetAttr(name, value string) *Element {
	for i := range e.Attrs {
		if e.Attrs[i].Name == name {
			e.Attrs[i].Value = value
			return e
		}
	}
	e.Attrs = append(e.Attrs, Attr{Name: name, Value: value})
	return e
}

// Attr returns the value of the named attribute and whether it exists.
func (e *Element) Attr(name string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrValue returns the value of the named attribute, or "" if absent.
func (e *Element) AttrValue(name string) string {
	v, _ := e.Attr(name)
	return v
}

// LocalName returns the element name with any namespace prefix removed.
func (e *Element) LocalName() string {
	if i := strings.IndexByte(e.Name, ':'); i >= 0 {
		return e.Name[i+1:]
	}
	return e.Name
}

// Child returns the first child element with the given name (exact match),
// or nil if there is none.
func (e *Element) Child(name string) *Element {
	for _, c := range e.Children {
		if el, ok := c.(*Element); ok && el.Name == name {
			return el
		}
	}
	return nil
}

// ChildElements returns all child elements, in document order.
func (e *Element) ChildElements() []*Element {
	var out []*Element
	for _, c := range e.Children {
		if el, ok := c.(*Element); ok {
			out = append(out, el)
		}
	}
	return out
}

// ChildrenNamed returns all child elements with the given name, in order.
func (e *Element) ChildrenNamed(name string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if el, ok := c.(*Element); ok && el.Name == name {
			out = append(out, el)
		}
	}
	return out
}

// Descendants returns all descendant elements with the given name, in
// document order. If name is "*", every descendant element is returned.
func (e *Element) Descendants(name string) []*Element {
	var out []*Element
	var walk func(*Element)
	walk = func(el *Element) {
		for _, c := range el.Children {
			child, ok := c.(*Element)
			if !ok {
				continue
			}
			if name == "*" || child.Name == name {
				out = append(out, child)
			}
			walk(child)
		}
	}
	walk(e)
	return out
}

// Text returns the concatenation of all text data directly inside e
// (not descending into child elements), trimmed of surrounding whitespace.
func (e *Element) Text() string {
	var b strings.Builder
	for _, c := range e.Children {
		if t, ok := c.(*Text); ok {
			b.WriteString(t.Data)
		}
	}
	return strings.TrimSpace(b.String())
}

// DeepText returns all text data inside e, including text of descendants,
// in document order, trimmed of surrounding whitespace.
func (e *Element) DeepText() string {
	// Leaf fast path: an element whose only child is one text run — the
	// overwhelmingly common shape for extracted catalog fields — needs no
	// builder and no tree walk.
	if len(e.Children) == 1 {
		if t, ok := e.Children[0].(*Text); ok {
			return strings.TrimSpace(t.Data)
		}
	}
	var b strings.Builder
	var walk func(*Element)
	walk = func(el *Element) {
		for _, c := range el.Children {
			switch n := c.(type) {
			case *Text:
				b.WriteString(n.Data)
			case *Element:
				walk(n)
			}
		}
	}
	walk(e)
	return strings.TrimSpace(b.String())
}

// ChildText returns the trimmed text of the first child element with the
// given name, or "" if there is no such child.
func (e *Element) ChildText(name string) string {
	if c := e.Child(name); c != nil {
		return c.Text()
	}
	return ""
}

// HasChild reports whether e has a direct child element with the given name.
func (e *Element) HasChild(name string) bool { return e.Child(name) != nil }

// Clone returns a deep copy of e, detached from any parent.
func (e *Element) Clone() *Element {
	cp := &Element{Name: e.Name}
	cp.Attrs = append([]Attr(nil), e.Attrs...)
	for _, c := range e.Children {
		switch n := c.(type) {
		case *Element:
			cp.Append(n.Clone())
		case *Text:
			cp.Append(NewText(n.Data))
		case *Comment:
			cp.Append(&Comment{Data: n.Data})
		}
	}
	return cp
}

// Equal reports whether two elements are deeply equal: same name, same
// attributes in the same order, and recursively equal children. Text nodes
// are compared after trimming surrounding whitespace so that formatting
// differences do not matter.
func Equal(a, b *Element) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	an, bn := significantChildren(a), significantChildren(b)
	if len(an) != len(bn) {
		return false
	}
	for i := range an {
		switch x := an[i].(type) {
		case *Element:
			y, ok := bn[i].(*Element)
			if !ok || !Equal(x, y) {
				return false
			}
		case *Text:
			y, ok := bn[i].(*Text)
			if !ok || strings.TrimSpace(x.Data) != strings.TrimSpace(y.Data) {
				return false
			}
		case *Comment:
			y, ok := bn[i].(*Comment)
			if !ok || x.Data != y.Data {
				return false
			}
		}
	}
	return true
}

// significantChildren filters out whitespace-only text nodes.
func significantChildren(e *Element) []Node {
	var out []Node
	for _, c := range e.Children {
		if t, ok := c.(*Text); ok && strings.TrimSpace(t.Data) == "" {
			continue
		}
		out = append(out, c)
	}
	return out
}

// Path returns a slash-separated path of element names from the root to e,
// e.g. "brown/Course/Title". Useful in error messages.
func (e *Element) Path() string {
	if e == nil {
		return ""
	}
	var parts []string
	for cur := e; cur != nil; cur = cur.parent {
		parts = append(parts, cur.Name)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// String renders the element as compact XML; primarily for debugging and
// error messages.
func (e *Element) String() string {
	var b strings.Builder
	writeCompact(&b, e)
	return b.String()
}

func writeCompact(b *strings.Builder, e *Element) {
	b.WriteByte('<')
	b.WriteString(e.Name)
	for _, a := range e.Attrs {
		fmt.Fprintf(b, " %s=%q", a.Name, a.Value)
	}
	if len(e.Children) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, c := range e.Children {
		switch n := c.(type) {
		case *Element:
			writeCompact(b, n)
		case *Text:
			b.WriteString(EscapeText(n.Data))
		case *Comment:
			b.WriteString("<!--")
			b.WriteString(n.Data)
			b.WriteString("-->")
		}
	}
	b.WriteString("</")
	b.WriteString(e.Name)
	b.WriteByte('>')
}
