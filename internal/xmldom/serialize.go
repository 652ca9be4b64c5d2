package xmldom

import (
	"io"
	"strings"
)

var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// EscapeText escapes character data for inclusion in XML content.
func EscapeText(s string) string { return textEscaper.Replace(s) }

// WriteOptions control document serialization.
type WriteOptions struct {
	// Indent is the per-level indentation string; "" produces compact output.
	Indent string
	// OmitDecl suppresses the leading <?xml ...?> declaration.
	OmitDecl bool
}

// WriteTo serializes the document to w using opts.
func (d *Document) WriteTo(w io.Writer, opts WriteOptions) error {
	sw := &stickyWriter{w: w}
	if !opts.OmitDecl {
		sw.writeString(`<?xml version="1.0" encoding="UTF-8"?>`)
		if opts.Indent != "" {
			sw.writeString("\n")
		}
	}
	writeElement(sw, d.Root, opts.Indent, 0)
	if opts.Indent != "" {
		sw.writeString("\n")
	}
	return sw.err
}

// Encode returns the document serialized with two-space indentation.
func (d *Document) Encode() string {
	var b strings.Builder
	_ = d.WriteTo(&b, WriteOptions{Indent: "  "})
	return b.String()
}

// EncodeCompact returns the document serialized without whitespace or
// declaration; useful for equality checks and wire formats.
func (d *Document) EncodeCompact() string {
	var b strings.Builder
	_ = d.WriteTo(&b, WriteOptions{OmitDecl: true})
	return b.String()
}

type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) writeString(str string) {
	if s.err != nil {
		return
	}
	_, s.err = io.WriteString(s.w, str)
}

// writeEscaped writes str through the escaper r, without building the
// escaped copy.
func (s *stickyWriter) writeEscaped(r *strings.Replacer, str string) {
	if s.err != nil {
		return
	}
	_, s.err = r.WriteString(s.w, str)
}

// writePad writes depth copies of indent.
func (s *stickyWriter) writePad(indent string, depth int) {
	if indent == "" {
		return
	}
	for i := 0; i < depth; i++ {
		s.writeString(indent)
	}
}

func writeElement(w *stickyWriter, e *Element, indent string, depth int) {
	w.writePad(indent, depth)
	w.writeString("<")
	w.writeString(e.Name)
	for _, a := range e.Attrs {
		w.writeString(" ")
		w.writeString(a.Name)
		w.writeString(`="`)
		w.writeEscaped(attrEscaper, a.Value)
		w.writeString(`"`)
	}
	if len(e.Children) == 0 {
		w.writeString("/>")
		return
	}
	// An element whose children are text-only is written inline so that
	// values round-trip without gaining whitespace.
	if textOnly(e) {
		w.writeString(">")
		for _, c := range e.Children {
			if t, ok := c.(*Text); ok {
				w.writeEscaped(textEscaper, t.Data)
			}
		}
		w.writeString("</")
		w.writeString(e.Name)
		w.writeString(">")
		return
	}
	w.writeString(">")
	for _, c := range e.Children {
		if indent != "" {
			w.writeString("\n")
		}
		switch n := c.(type) {
		case *Element:
			writeElement(w, n, indent, depth+1)
		case *Text:
			w.writePad(indent, depth+1)
			w.writeEscaped(textEscaper, strings.TrimSpace(n.Data))
		case *Comment:
			w.writePad(indent, depth+1)
			w.writeString("<!--")
			w.writeString(n.Data)
			w.writeString("-->")
		}
	}
	if indent != "" {
		w.writeString("\n")
		w.writePad(indent, depth)
	}
	w.writeString("</")
	w.writeString(e.Name)
	w.writeString(">")
}

func textOnly(e *Element) bool {
	for _, c := range e.Children {
		if _, ok := c.(*Text); !ok {
			return false
		}
	}
	return len(e.Children) > 0
}
