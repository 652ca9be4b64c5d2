// Package tess implements the screen-scraping wrapper THALIA uses to turn
// cached HTML course catalogs into well-formed XML. It follows the design of
// the Telegraph Screen Scraper (TESS) as the paper describes it: for each
// source, a configuration file specifies the fields to extract, with the
// beginning and ending point of each field identified by regular
// expressions. The package also implements the paper's two extensions:
//
//   - nested structures (required for the University of Maryland catalog,
//     whose sections are rows of a nested table), expressed as rules within
//     rules; and
//   - link handling: TESS performs no deep extraction, so a hyperlinked
//     field either keeps its markup (mode "markup"), is flattened to text
//     (mode "text"), or yields the URL of the link itself (mode "link").
//
// Extraction deliberately preserves structural and semantic heterogeneity:
// emitted element names come from the configuration, which in the testbed
// takes them from the source's own column titles.
package tess

import (
	"fmt"
	"regexp"
	"regexp/syntax"
	"strconv"
	"strings"
	"unicode/utf8"

	"thalia/internal/xmldom"
)

// Mode selects how a leaf rule converts the matched region into a value.
type Mode int

// Extraction modes for leaf rules.
const (
	// ModeText strips markup, decodes entities, and collapses whitespace.
	ModeText Mode = iota
	// ModeMarkup preserves inline markup (anchors) as child elements; this
	// is how Brown's hyperlinked Title/Time column is represented.
	ModeMarkup
	// ModeLink yields the URL of the first hyperlink in the region — the
	// paper's stand-in for unimplemented deep extraction.
	ModeLink
	// ModeRaw keeps the region verbatim (no tag stripping); used when the
	// region is already plain text.
	ModeRaw
	// ModeDeep follows the region's hyperlink and extracts from the linked
	// page using the rule's nested Rules — the deep extraction the paper
	// lists as unimplemented future work ("we return the URL of the link
	// instead"). Without a page fetcher (ExtractPages' fetch argument),
	// ModeDeep degrades to exactly the paper's behaviour: the URL itself
	// becomes the extracted value.
	ModeDeep
)

// String returns the configuration-file spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeText:
		return "text"
	case ModeMarkup:
		return "markup"
	case ModeLink:
		return "link"
	case ModeRaw:
		return "raw"
	case ModeDeep:
		return "deep"
	default:
		return "text"
	}
}

// parseMode is the inverse of Mode.String.
func parseMode(s string) (Mode, error) {
	switch s {
	case "", "text":
		return ModeText, nil
	case "markup":
		return ModeMarkup, nil
	case "link":
		return ModeLink, nil
	case "raw":
		return ModeRaw, nil
	case "deep":
		return ModeDeep, nil
	default:
		return ModeText, fmt.Errorf("tess: unknown mode %q", s)
	}
}

// AttrRule extracts an attribute for the enclosing rule's element from the
// same region, delimited by Begin/End regular expressions.
type AttrRule struct {
	Name  string
	Begin string
	End   string

	begin, end marker
}

// Rule describes one field to extract. The field's region starts after the
// first match of Begin and ends before the following match of End. A rule
// with nested Rules emits an element whose children come from applying the
// nested rules to the region (the paper's nested-structure extension);
// otherwise it emits an element whose content is the region converted
// according to Mode.
type Rule struct {
	// Name is the emitted XML element name. In the testbed this is the
	// source's own column title, preserving naming heterogeneities.
	Name string
	// Begin and End are regular expressions delimiting the region.
	Begin string
	End   string
	// Repeat extracts every occurrence in the enclosing region rather than
	// only the first.
	Repeat bool
	// Optional suppresses the "field not found" error when Begin does not
	// match; the element is simply omitted (case 6, Nulls).
	Optional bool
	// Mode controls leaf conversion; ignored when Rules is non-empty.
	Mode Mode
	// Rules are nested extraction rules (the UMD extension).
	Rules []*Rule
	// Mixed, for a rule with nested Rules, also keeps the region's text
	// outside the nested matches (tag-stripped) as leading character data.
	// This models columns like CMU's title, where a free-text comment is
	// attached to the course title (cases 3 and 7).
	Mixed bool
	// Attrs extract attributes of the emitted element from the region.
	Attrs []*AttrRule

	begin, end marker
}

// Config is a complete wrapper configuration for one source.
type Config struct {
	// Source is the root element name of the emitted document (e.g. "brown").
	Source string
	// Rules are applied to the whole page.
	Rules []*Rule
}

// compile prepares all regular expressions, returning the first error.
func (c *Config) compile() error {
	if c.Source == "" {
		return fmt.Errorf("tess: config has no source name")
	}
	if len(c.Rules) == 0 {
		return fmt.Errorf("tess: config %q has no rules", c.Source)
	}
	for _, r := range c.Rules {
		if err := r.compile(); err != nil {
			return err
		}
	}
	return nil
}

func (r *Rule) compile() error {
	if r.Name == "" {
		return fmt.Errorf("tess: rule missing name")
	}
	var err error
	if r.begin, err = compileMarker(r.Begin); err != nil {
		return fmt.Errorf("tess: rule %s: begin: %w", r.Name, err)
	}
	if r.end, err = compileMarker(r.End); err != nil {
		return fmt.Errorf("tess: rule %s: end: %w", r.Name, err)
	}
	for _, a := range r.Attrs {
		if a.begin, err = compileMarker(a.Begin); err != nil {
			return fmt.Errorf("tess: rule %s: attr %s begin: %w", r.Name, a.Name, err)
		}
		if a.end, err = compileMarker(a.End); err != nil {
			return fmt.Errorf("tess: rule %s: attr %s end: %w", r.Name, a.Name, err)
		}
	}
	for _, child := range r.Rules {
		if err := child.compile(); err != nil {
			return err
		}
	}
	return nil
}

// marker finds a Begin, End or attribute delimiter in a region. A pattern
// that regexp/syntax parses to a case-sensitive literal, as every marker in
// the built-in wrappers is, or to the empty match is found with
// strings.Index, which returns the same match as regexp's leftmost-first
// search without compiling a program; any other pattern is a regexp.
type marker struct {
	lit string
	re  *regexp.Regexp // nil when lit is the pattern's text
}

func compileMarker(pattern string) (marker, error) {
	if lit, ok := literal(pattern); ok {
		return marker{lit: lit}, nil
	}
	re, err := regexp.Compile(pattern)
	return marker{re: re}, err
}

// literal returns the text a pattern matches exactly, if it is a literal.
// A literal holding U+FFFD is not one: regexp matches that character
// against each byte of invalid UTF-8, where strings.Index does not. Nor is
// one holding a rune UTF-8 cannot encode, which regexp never matches.
func literal(pattern string) (string, bool) {
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		return "", false
	}
	switch {
	case re.Op == syntax.OpEmptyMatch:
		return "", true
	case re.Op == syntax.OpLiteral && re.Flags&syntax.FoldCase == 0:
		for _, r := range re.Rune {
			if r == utf8.RuneError || !utf8.ValidRune(r) {
				return "", false
			}
		}
		return string(re.Rune), true
	}
	return "", false
}

// find returns the bounds of the leftmost match in s.
func (m marker) find(s string) (start, end int, ok bool) {
	if m.re != nil {
		loc := m.re.FindStringIndex(s)
		if loc == nil {
			return 0, 0, false
		}
		return loc[0], loc[1], true
	}
	i := strings.Index(s, m.lit)
	if i < 0 {
		return 0, 0, false
	}
	return i, i + len(m.lit), true
}

// MarshalConfig renders the configuration in its XML file format.
func MarshalConfig(c *Config) string {
	root := xmldom.NewElement("tess").SetAttr("source", c.Source)
	for _, r := range c.Rules {
		root.Append(ruleToXML(r))
	}
	return xmldom.NewDocument(root).Encode()
}

func ruleToXML(r *Rule) *xmldom.Element {
	el := xmldom.NewElement("rule").
		SetAttr("name", r.Name).
		SetAttr("begin", r.Begin).
		SetAttr("end", r.End)
	if r.Repeat {
		el.SetAttr("repeat", "true")
	}
	if r.Optional {
		el.SetAttr("optional", "true")
	}
	if r.Mixed {
		el.SetAttr("mixed", "true")
	}
	if r.Mode != ModeText {
		el.SetAttr("mode", r.Mode.String())
	}
	for _, a := range r.Attrs {
		el.Append(xmldom.NewElement("attr").
			SetAttr("name", a.Name).
			SetAttr("begin", a.Begin).
			SetAttr("end", a.End))
	}
	for _, child := range r.Rules {
		el.Append(ruleToXML(child))
	}
	return el
}

// ParseConfig reads a configuration from its XML file format.
func ParseConfig(src string) (*Config, error) {
	doc, err := xmldom.ParseString(src)
	if err != nil {
		return nil, fmt.Errorf("tess: config: %w", err)
	}
	if doc.Root.Name != "tess" {
		return nil, fmt.Errorf("tess: config root is %q, want tess", doc.Root.Name)
	}
	c := &Config{Source: doc.Root.AttrValue("source")}
	for _, rel := range doc.Root.ChildrenNamed("rule") {
		r, err := ruleFromXML(rel)
		if err != nil {
			return nil, err
		}
		c.Rules = append(c.Rules, r)
	}
	if err := c.compile(); err != nil {
		return nil, err
	}
	return c, nil
}

func ruleFromXML(el *xmldom.Element) (*Rule, error) {
	r := &Rule{
		Name:  el.AttrValue("name"),
		Begin: el.AttrValue("begin"),
		End:   el.AttrValue("end"),
	}
	var err error
	if v := el.AttrValue("repeat"); v != "" {
		if r.Repeat, err = strconv.ParseBool(v); err != nil {
			return nil, fmt.Errorf("tess: rule %s: repeat: %w", r.Name, err)
		}
	}
	if v := el.AttrValue("optional"); v != "" {
		if r.Optional, err = strconv.ParseBool(v); err != nil {
			return nil, fmt.Errorf("tess: rule %s: optional: %w", r.Name, err)
		}
	}
	if v := el.AttrValue("mixed"); v != "" {
		if r.Mixed, err = strconv.ParseBool(v); err != nil {
			return nil, fmt.Errorf("tess: rule %s: mixed: %w", r.Name, err)
		}
	}
	if r.Mode, err = parseMode(el.AttrValue("mode")); err != nil {
		return nil, err
	}
	for _, a := range el.ChildrenNamed("attr") {
		r.Attrs = append(r.Attrs, &AttrRule{
			Name:  a.AttrValue("name"),
			Begin: a.AttrValue("begin"),
			End:   a.AttrValue("end"),
		})
	}
	for _, c := range el.ChildrenNamed("rule") {
		child, err := ruleFromXML(c)
		if err != nil {
			return nil, err
		}
		r.Rules = append(r.Rules, child)
	}
	return r, nil
}
