package tess

import (
	"fmt"
	"strings"

	"thalia/internal/xmldom"
)

// FieldError reports a required field whose Begin or End regular expression
// did not match; it carries enough context to fix the configuration.
type FieldError struct {
	Rule   string // rule name
	Which  string // "begin" or "end"
	Around string // a snippet of the region being scanned
}

// Error implements error.
func (e *FieldError) Error() string {
	return fmt.Sprintf("tess: field %q: %s marker not found near %q", e.Rule, e.Which, e.Around)
}

// Fetcher resolves a hyperlink to the linked page's HTML, enabling deep
// extraction (ModeDeep). The testbed serves cached snapshots, so fetchers
// there read from the source's linked-page store rather than the network.
type Fetcher func(url string) (string, error)

// Extract runs the configuration against an HTML page and returns the
// extracted XML document, whose root element is named after the source.
//
// Rules at the same level are applied sequentially: each rule starts
// scanning where the previous rule's match ended, the way TESS walks the
// columns of a table row in order. Required fields that cannot be located
// yield a *FieldError. Deep-extraction rules degrade to the paper's
// URL-returning behaviour because no fetcher is available; use
// ExtractPages to enable them.
func Extract(cfg *Config, page string) (*xmldom.Document, error) {
	return ExtractPages(cfg, page, nil)
}

// ExtractPages is Extract with a page fetcher for ModeDeep rules: the rule
// follows the region's first hyperlink and applies its nested rules to the
// fetched page — the deep extraction the paper left as future work.
func ExtractPages(cfg *Config, page string, fetch Fetcher) (*xmldom.Document, error) {
	if err := cfg.compile(); err != nil {
		return nil, err
	}
	ex := &extractor{fetch: fetch}
	root := xmldom.NewElement(cfg.Source)
	if _, err := ex.applyRules(cfg.Rules, page, root, nil); err != nil {
		return nil, err
	}
	return xmldom.NewDocument(root), nil
}

// extractor carries per-run state (the page fetcher) through rule
// application.
type extractor struct {
	fetch Fetcher
}

// ExtractString is Extract followed by indented serialization; it is what
// cmd/tess prints.
func ExtractString(cfg *Config, page string) (string, error) {
	doc, err := Extract(cfg, page)
	if err != nil {
		return "", err
	}
	return doc.Encode(), nil
}

// span marks the region (begin marker through end-marker start) one rule
// match covered; Mixed extraction uses spans to find the leftover text.
type span struct{ start, end int }

// applyRules applies each rule to region in order, threading the scan
// position, and appends emitted elements to parent. It returns the final
// scan position. When spans is non-nil, each match's covered span is
// recorded.
func (ex *extractor) applyRules(rules []*Rule, region string, parent *xmldom.Element, spans *[]span) (int, error) {
	pos := 0
	for _, r := range rules {
		next, err := ex.applyRule(r, region, pos, parent, spans)
		if err != nil {
			return pos, err
		}
		if next > pos {
			pos = next
		}
	}
	return pos, nil
}

// applyRule scans region starting at pos for matches of r, appending emitted
// elements to parent. It returns the position just past the last match, or
// pos unchanged if an optional rule found nothing.
func (ex *extractor) applyRule(r *Rule, region string, pos int, parent *xmldom.Element, spans *[]span) (int, error) {
	found := false
	for {
		bStart, bEnd, ok := r.begin.find(region[pos:])
		if !ok {
			break
		}
		beginStart, beginEnd := pos+bStart, pos+bEnd
		eStart, eEnd, ok := r.end.find(region[beginEnd:])
		if !ok {
			if found || r.Optional {
				break
			}
			return pos, &FieldError{Rule: r.Name, Which: "end", Around: snippet(region[beginEnd:])}
		}
		body := region[beginEnd : beginEnd+eStart]
		// The full region (including the begin marker) is what attribute
		// rules scan: attributes often live inside the opening tag that
		// the begin expression matched.
		full := region[beginStart : beginEnd+eStart]
		el, err := ex.emit(r, body, full)
		if err != nil {
			return pos, err
		}
		if el != nil {
			parent.Append(el)
		}
		if spans != nil {
			*spans = append(*spans, span{start: beginStart, end: beginEnd + eEnd})
		}
		found = true
		next := beginEnd + eEnd
		if next <= pos {
			// Both markers matched empty strings: the scan is not
			// advancing, so a repeating rule would loop forever.
			pos = next
			break
		}
		pos = next
		if !r.Repeat {
			break
		}
	}
	if !found && !r.Optional {
		return pos, &FieldError{Rule: r.Name, Which: "begin", Around: snippet(region[pos:])}
	}
	return pos, nil
}

// emit converts one matched region into an element (or nil to omit it).
func (ex *extractor) emit(r *Rule, body, full string) (*xmldom.Element, error) {
	el := xmldom.NewElement(r.Name)
	for _, a := range r.Attrs {
		_, bEnd, ok := a.begin.find(full)
		if !ok {
			continue
		}
		after := full[bEnd:]
		eStart, _, ok := a.end.find(after)
		if !ok {
			continue
		}
		el.SetAttr(a.Name, StripTags(after[:eStart]))
	}
	if r.Mode == ModeDeep {
		return ex.emitDeep(r, el, body)
	}
	if len(r.Rules) > 0 {
		var spans []span
		if _, err := ex.applyRules(r.Rules, body, el, &spans); err != nil {
			return nil, err
		}
		if r.Mixed {
			// Keep the text outside the nested matches as leading character
			// data (CMU's title column: free text plus an attached comment).
			var leftover strings.Builder
			prev := 0
			for _, sp := range spans {
				if sp.start > prev {
					leftover.WriteString(body[prev:sp.start])
					leftover.WriteByte(' ')
				}
				if sp.end > prev {
					prev = sp.end
				}
			}
			if prev < len(body) {
				leftover.WriteString(body[prev:])
			}
			if text := StripTags(leftover.String()); text != "" {
				el.Prepend(xmldom.NewText(text))
			}
		}
		return el, nil
	}
	switch r.Mode {
	case ModeText:
		el.AppendText(StripTags(body))
	case ModeRaw:
		el.AppendText(strings.TrimSpace(decodeEntities(body)))
	case ModeLink:
		if url := FirstLink(body); url != "" {
			el.AppendText(url)
		} else {
			// No link present: fall back to the visible text, as TESS does
			// for sources where only some values are hyperlinked.
			el.AppendText(StripTags(body))
		}
	case ModeMarkup:
		el.Append(MarkupNodes(body)...)
	}
	return el, nil
}

// emitDeep implements ModeDeep: follow the region's first hyperlink and
// extract from the linked page with the rule's nested rules. Without a
// fetcher (or without a link) it reproduces the paper's fallback: the URL
// (or the visible text) becomes the value.
func (ex *extractor) emitDeep(r *Rule, el *xmldom.Element, body string) (*xmldom.Element, error) {
	url := FirstLink(body)
	if url == "" {
		el.AppendText(StripTags(body))
		return el, nil
	}
	if ex.fetch == nil || len(r.Rules) == 0 {
		el.AppendText(url)
		return el, nil
	}
	linked, err := ex.fetch(url)
	if err != nil {
		return nil, fmt.Errorf("tess: deep extraction of %q: %w", url, err)
	}
	el.SetAttr("href", url)
	if _, err := ex.applyRules(r.Rules, linked, el, nil); err != nil {
		return nil, err
	}
	return el, nil
}

// snippet trims a region to a short prefix for error messages.
func snippet(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 60 {
		s = s[:60] + "…"
	}
	return s
}
