package tess

import (
	"regexp"
	"strings"
	"testing"
)

// FuzzParseConfig drives the wrapper-config reader with arbitrary input.
// The contract under test: ParseConfig never panics — malformed configs
// error out — and any accepted config survives MarshalConfig → ParseConfig
// with the same rendered form (the XML rendering is canonical).
func FuzzParseConfig(f *testing.F) {
	seeds := []string{
		`<tess source="cmu"><rule name="Course" begin="&lt;tr&gt;" end="&lt;/tr&gt;" repeat="true"><rule name="Title" begin="&lt;td&gt;" end="&lt;/td&gt;"/></rule></tess>`,
		`<tess source="brown"><rule name="Course" begin="B" end="E" repeat="true" optional="true" mixed="true" mode="html"><attr name="href" begin="href=&quot;" end="&quot;"/></rule></tess>`,
		`<tess source="x"/>`,
		`<tess><rule name="r" begin="a" end="b" mode="bogus"/></tess>`,
		`<tess><rule name="r" begin="a" end="b" repeat="maybe"/></tess>`,
		`<nottess/>`,
		`not xml at all`,
		``,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseConfig(src)
		if err != nil {
			return // malformed configs must error, not panic
		}
		if c == nil {
			t.Fatalf("ParseConfig(%q) returned nil config and nil error", src)
		}
		out := MarshalConfig(c)
		c2, err := ParseConfig(out)
		if err != nil {
			t.Fatalf("re-parse of marshaled config failed: %v\ninput:    %q\nmarshaled: %q", err, src, out)
		}
		if out2 := MarshalConfig(c2); out2 != out {
			t.Fatalf("marshal is not canonical\nfirst:  %q\nsecond: %q", out, out2)
		}
	})
}

// StripTags' reference: the regular-expression pipeline its scanner
// replaced, one pass per step in the order StripTags documents.
var (
	oracleBR    = regexp.MustCompile(`(?i)<br\s*/?>`)
	oracleTag   = regexp.MustCompile(`(?s)<[^>]*>`)
	oracleSpace = regexp.MustCompile(`\s+`)
)

func stripTagsOracle(s string) string {
	s = oracleBR.ReplaceAllString(s, " ")
	s = oracleTag.ReplaceAllString(s, "")
	s = decodeEntities(s)
	return strings.TrimSpace(oracleSpace.ReplaceAllString(s, " "))
}

// FuzzStripTags checks the one-pass StripTags against the regular-expression
// pipeline on arbitrary input, invalid UTF-8 included. Its seeds, in
// testdata/fuzz/FuzzStripTags, hold a <br> inside a tag, unterminated tags,
// every <br> spelling, runs of &nbsp;, \v, and entities split by a tag.
func FuzzStripTags(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := StripTags(s), stripTagsOracle(s); got != want {
			t.Fatalf("StripTags(%q) = %q, want %q", s, got, want)
		}
	})
}

// FuzzMarker checks that the matcher compileMarker picks, literal or
// regexp, finds what regexp.FindStringIndex finds, and that it rejects
// exactly the patterns regexp.Compile rejects. Its seeds, in
// testdata/fuzz/FuzzMarker, hold escaped, quoted, case-folded, empty,
// U+FFFD, surrogate and invalid patterns.
func FuzzMarker(f *testing.F) {
	f.Fuzz(func(t *testing.T, pattern, text string) {
		m, err := compileMarker(pattern)
		re, reErr := regexp.Compile(pattern)
		if (err == nil) != (reErr == nil) {
			t.Fatalf("pattern %q: compileMarker error %v, regexp.Compile error %v", pattern, err, reErr)
		}
		if reErr != nil {
			return
		}
		start, end, ok := m.find(text)
		loc := re.FindStringIndex(text)
		if ok != (loc != nil) || ok && (start != loc[0] || end != loc[1]) {
			t.Fatalf("pattern %q (literal %v) in %q: found %d, %d, %v; regexp finds %v",
				pattern, m.re == nil, text, start, end, ok, loc)
		}
	})
}
