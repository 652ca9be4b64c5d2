package tess

import (
	"bytes"
	"regexp"
	"strings"

	"thalia/internal/xmldom"
)

// anchorRE matches a complete anchor element, capturing href and body.
var anchorRE = regexp.MustCompile(`(?is)<a\s[^>]*href\s*=\s*["']?([^"'>\s]+)["']?[^>]*>(.*?)</a>`)

// hrefRE matches just the href attribute of the first anchor tag.
var hrefRE = regexp.MustCompile(`(?is)<a\s[^>]*href\s*=\s*["']?([^"'>\s]+)["']?`)

// entities lists, as old/new pairs, the HTML entities that occur in the
// testbed's cached catalog pages (including the German umlauts in ETH's
// catalog). Every entity starts with '&', ends with ';' and holds no other
// '&', so no two occurrences in a text can overlap.
var entities = []string{
	"&nbsp;", " ",
	"&ndash;", "\u2013",
	"&mdash;", "\u2014",
	"&amp;", "&",
	"&lt;", "<",
	"&gt;", ">",
	"&quot;", `"`,
	"&#39;", "'",
	"&apos;", "'",
	"&uuml;", "ü",
	"&ouml;", "ö",
	"&auml;", "ä",
	"&Uuml;", "Ü",
	"&Ouml;", "Ö",
	"&Auml;", "Ä",
	"&szlig;", "ß",
}

// maxEntityLen is the length of the longest entity in entities.
const maxEntityLen = len("&ndash;")

var entityReplacer = strings.NewReplacer(entities...)

// decodeEntities resolves the entities in entities.
func decodeEntities(s string) string { return entityReplacer.Replace(s) }

// StripTags removes all markup from an HTML region, decodes entities, and
// collapses runs of whitespace — the ModeText conversion. It is one scan
// that returns what these steps, applied in this order, would:
//
//  1. each <br> (any case, optional white space and '/' before the '>')
//     becomes a space;
//  2. each tag, from a '<' to the next '>', is removed; a '<' with no '>'
//     after it is kept as text;
//  3. the entities in entities are decoded;
//  4. each run of \t, \n, \f, \r and space becomes one space (\v is not
//     white space here);
//  5. the result is trimmed as by strings.TrimSpace.
func StripTags(s string) string {
	t := textWriter{out: make([]byte, 0, len(s))}
	noTags := false // set once a '<' has no '>' after it
	for i := 0; i < len(s); {
		c := s[i]
		if c == '<' {
			if n := brLen(s[i:]); n > 0 {
				t.writeByte(' ')
				i += n
				continue
			}
			if !noTags {
				if end := tagEnd(s, i+1); end >= 0 {
					i = end
					continue
				}
				noTags = true
			}
		}
		t.writeByte(c)
		i++
	}
	return string(bytes.TrimSpace(t.out))
}

// brLen returns the length of the <br> tag that starts s, or 0: the
// regular expression (?i)<br\s*/?>.
func brLen(s string) int {
	if len(s) < 4 || s[0] != '<' || s[1]|0x20 != 'b' || s[2]|0x20 != 'r' {
		return 0
	}
	i := 3
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	if i < len(s) && s[i] == '/' {
		i++
	}
	if i < len(s) && s[i] == '>' {
		return i + 1
	}
	return 0
}

// tagEnd returns the index just past the '>' that closes a tag whose body
// starts at s[i], or -1 if none does. A <br> inside the tag became a space
// before tags were removed, so its '>' does not close the tag.
func tagEnd(s string, i int) int {
	for i < len(s) {
		switch s[i] {
		case '>':
			return i + 1
		case '<':
			if n := brLen(s[i:]); n > 0 {
				i += n
				continue
			}
		}
		i++
	}
	return -1
}

// isSpace reports whether c is in the regular expression class \s.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

// textWriter takes the text left after tag removal one byte at a time and
// decodes entities and collapses white space as it goes.
type textWriter struct {
	out   []byte
	raw   int  // out[:raw] is decoded text no entity may start in
	space bool // a run of white space awaits the next other byte
}

func (t *textWriter) writeByte(c byte) {
	if isSpace(c) {
		t.space = true
		return
	}
	if t.space {
		t.out = append(t.out, ' ')
		t.space = false
	}
	t.out = append(t.out, c)
	if c == ';' {
		t.decode()
	}
}

// decode replaces an entity that ends the output with its decoding.
func (t *textWriter) decode() {
	from := max(t.raw, len(t.out)-maxEntityLen)
	amp := bytes.LastIndexByte(t.out[from:], '&')
	if amp < 0 {
		return
	}
	amp += from
	for i := 0; i < len(entities); i += 2 {
		if string(t.out[amp:]) != entities[i] {
			continue
		}
		t.out = t.out[:amp]
		if dec := entities[i+1]; dec == " " {
			// The space joins any run of white space before it.
			if n := len(t.out); n > 0 && t.out[n-1] == ' ' {
				t.out = t.out[:n-1]
			}
			t.space = true
		} else {
			t.out = append(t.out, dec...)
		}
		t.raw = len(t.out)
		return
	}
}

// FirstLink returns the URL of the first hyperlink in the region, or "" if
// there is none — the ModeLink conversion (TESS's stand-in for deep
// extraction, per the paper).
func FirstLink(s string) string {
	m := hrefRE.FindStringSubmatch(s)
	if m == nil {
		return ""
	}
	return m[1]
}

// MarkupNodes converts an HTML region into xmldom nodes, preserving anchors
// as <a href="..."> elements with their (tag-stripped) text content, and
// everything else as text — the ModeMarkup conversion. This reproduces how
// the testbed represents Brown's Title/Time column, where the course title
// is a hyperlink concatenated with free-text time information.
func MarkupNodes(s string) []xmldom.Node {
	var nodes []xmldom.Node
	appendText := func(t string) {
		t = StripTags(t)
		if t == "" {
			return
		}
		nodes = append(nodes, xmldom.NewText(t))
	}
	for {
		loc := anchorRE.FindStringSubmatchIndex(s)
		if loc == nil {
			appendText(s)
			return nodes
		}
		appendText(s[:loc[0]])
		href := s[loc[2]:loc[3]]
		body := StripTags(s[loc[4]:loc[5]])
		a := xmldom.NewElement("a").SetAttr("href", href)
		if body != "" {
			a.AppendText(body)
		}
		nodes = append(nodes, a)
		s = s[loc[1]:]
	}
}
