package tess

import (
	"strings"
	"testing"
	"testing/quick"

	"thalia/internal/xmldom"
)

// A miniature Brown-style catalog: a simple table, one row per course, with
// a hyperlinked instructor and a Title/Time concatenation (Figure 1).
const brownPage = `<html><body><h1>Brown CS Courses</h1>
<table>
<tr class="hdr"><th>CrsNum</th><th>Instructor</th><th>Title/Time</th><th>Room</th></tr>
<tr class="course"><td>CS016</td><td><a href="http://cs.brown.edu/~twd">Doeppner</a></td><td><a href="http://www.cs.brown.edu/courses/cs016/">Intro to Algorithms &amp; Data Structures</a>D hr. MWF 11-12</td><td>CIT 165, Labs in Sunlab</td></tr>
<tr class="course"><td>CS127</td><td><a href="http://cs.brown.edu/~ugur">Cetintemel</a></td><td><a href="http://www.cs.brown.edu/courses/cs127/">Databases</a>K hr. T,Th 2:30-4</td><td>CIT 368</td></tr>
</table></body></html>`

func brownConfig() *Config {
	return &Config{
		Source: "brown",
		Rules: []*Rule{{
			Name:   "Course",
			Begin:  `<tr class="course">`,
			End:    `</tr>`,
			Repeat: true,
			Rules: []*Rule{
				{Name: "CrsNum", Begin: `<td>`, End: `</td>`},
				{Name: "Instructor", Begin: `<td>`, End: `</td>`, Mode: ModeLink},
				{Name: "Title", Begin: `<td>`, End: `</td>`, Mode: ModeMarkup},
				{Name: "Room", Begin: `<td>`, End: `</td>`},
			},
		}},
	}
}

func TestExtractBrownStyle(t *testing.T) {
	doc, err := Extract(brownConfig(), brownPage)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	courses := doc.Root.ChildrenNamed("Course")
	if len(courses) != 2 {
		t.Fatalf("courses = %d, want 2\n%s", len(courses), doc.Encode())
	}
	c := courses[0]
	if got := c.ChildText("CrsNum"); got != "CS016" {
		t.Errorf("CrsNum = %q", got)
	}
	// ModeLink: instructor value is the URL of the link (no deep extraction).
	if got := c.ChildText("Instructor"); got != "http://cs.brown.edu/~twd" {
		t.Errorf("Instructor = %q", got)
	}
	// ModeMarkup: the title keeps the anchor plus the trailing time text.
	title := c.Child("Title")
	if title == nil {
		t.Fatal("no Title")
	}
	a := title.Child("a")
	if a == nil || a.Text() != "Intro to Algorithms & Data Structures" {
		t.Fatalf("Title anchor wrong: %v", title)
	}
	if got := title.DeepText(); !strings.Contains(got, "D hr. MWF 11-12") {
		t.Errorf("Title tail = %q", got)
	}
	if got := c.ChildText("Room"); got != "CIT 165, Labs in Sunlab" {
		t.Errorf("Room = %q", got)
	}
}

// A miniature Maryland-style catalog: courses with a *nested* sections
// table (Figure 2), requiring the nested-rule extension.
const umdPage = `<html><body>
<div class="course"><b>CMSC412</b> Operating Systems; <i>(3 credits)</i>
<table class="sections">
<tr class="sec"><td>0101(13795)</td><td>Hollingsworth, J.</td><td>MWF 10:00am KEY0106</td></tr>
<tr class="sec"><td>0201(13796)</td><td>Keleher, P. (Seats=40, Open=2, Waitlist=0)</td><td>TTh 2:00pm EGR2154</td></tr>
</table>
</div>
<div class="course"><b>CMSC420</b> Data Structures; <i>(3 credits)</i>
<table class="sections">
<tr class="sec"><td>0101(13801)</td><td>Mount, D.</td><td>MWF 11:00am CSI2117</td></tr>
</table>
</div>
</body></html>`

func umdConfig() *Config {
	return &Config{
		Source: "umd",
		Rules: []*Rule{{
			Name:   "Course",
			Begin:  `<div class="course">`,
			End:    `</div>`,
			Repeat: true,
			Rules: []*Rule{
				{Name: "CourseNum", Begin: `<b>`, End: `</b>`},
				// An empty begin expression means "continue from here": the
				// course name starts right after the previous field's end.
				{Name: "CourseName", Begin: ``, End: `;`},
				{Name: "Credits", Begin: `<i>\(`, End: `\)</i>`},
				{
					Name:   "Section",
					Begin:  `<tr class="sec">`,
					End:    `</tr>`,
					Repeat: true,
					Rules: []*Rule{
						{Name: "SectionNum", Begin: `<td>`, End: `</td>`},
						{Name: "Teacher", Begin: `<td>`, End: `</td>`},
						{Name: "Time", Begin: `<td>`, End: `</td>`},
					},
				},
			},
		}},
	}
}

func TestExtractNestedSections(t *testing.T) {
	doc, err := Extract(umdConfig(), umdPage)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	courses := doc.Root.ChildrenNamed("Course")
	if len(courses) != 2 {
		t.Fatalf("courses = %d, want 2\n%s", len(courses), doc.Encode())
	}
	os := courses[0]
	if got := os.ChildText("CourseName"); got != "Operating Systems" {
		t.Errorf("CourseName = %q", got)
	}
	secs := os.ChildrenNamed("Section")
	if len(secs) != 2 {
		t.Fatalf("sections = %d, want 2", len(secs))
	}
	if got := secs[1].ChildText("Teacher"); got != "Keleher, P. (Seats=40, Open=2, Waitlist=0)" {
		t.Errorf("Teacher = %q", got)
	}
	if got := secs[0].ChildText("Time"); got != "MWF 10:00am KEY0106" {
		t.Errorf("Time = %q", got)
	}
	if got := courses[1].ChildrenNamed("Section"); len(got) != 1 {
		t.Errorf("second course sections = %d, want 1", len(got))
	}
}

// Ablation check from DESIGN.md: without the nested-structure extension a
// flat rule cannot reproduce the per-course section grouping — all sections
// collapse into one undifferentiated list.
func TestAblationFlatRulesLoseNesting(t *testing.T) {
	flat := &Config{
		Source: "umd",
		Rules: []*Rule{
			{Name: "Section", Begin: `<tr class="sec">`, End: `</tr>`, Repeat: true, Mode: ModeText},
		},
	}
	doc, err := Extract(flat, umdPage)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	// Flat extraction yields 3 sections directly under the root — the
	// association between course and sections is lost.
	if got := len(doc.Root.ChildrenNamed("Section")); got != 3 {
		t.Fatalf("flat sections = %d, want 3", got)
	}
	if got := len(doc.Root.ChildrenNamed("Course")); got != 0 {
		t.Errorf("flat extraction should not produce Course elements")
	}
}

func TestRequiredFieldMissing(t *testing.T) {
	cfg := &Config{
		Source: "x",
		Rules:  []*Rule{{Name: "F", Begin: `BEGIN`, End: `END`}},
	}
	_, err := Extract(cfg, "no markers here")
	if err == nil {
		t.Fatal("expected error")
	}
	fe, ok := err.(*FieldError)
	if !ok {
		t.Fatalf("error type %T, want *FieldError", err)
	}
	if fe.Rule != "F" || fe.Which != "begin" {
		t.Errorf("FieldError = %+v", fe)
	}

	_, err = Extract(cfg, "BEGIN but never ends")
	fe, ok = err.(*FieldError)
	if !ok || fe.Which != "end" {
		t.Errorf("want end-marker error, got %v", err)
	}
}

func TestOptionalFieldOmitted(t *testing.T) {
	cfg := &Config{
		Source: "x",
		Rules: []*Rule{
			{Name: "A", Begin: `\[`, End: `\]`},
			{Name: "Textbook", Begin: `<book>`, End: `</book>`, Optional: true},
		},
	}
	doc, err := Extract(cfg, "[hello]")
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if doc.Root.HasChild("Textbook") {
		t.Error("optional missing field should be omitted")
	}
	if got := doc.Root.ChildText("A"); got != "hello" {
		t.Errorf("A = %q", got)
	}
}

func TestAttrRules(t *testing.T) {
	cfg := &Config{
		Source: "x",
		Rules: []*Rule{{
			Name: "Time", Begin: `<time[^>]*>`, End: `</time>`,
			Attrs: []*AttrRule{{Name: "room", Begin: `room="`, End: `"`}},
			Rules: []*Rule{{Name: "Value", Begin: `>`, End: `<`}},
		}},
	}
	doc, err := Extract(cfg, `<time room="KEY0106"><v>10am</v></time>`)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	tm := doc.Root.Child("Time")
	if tm.AttrValue("room") != "KEY0106" {
		t.Errorf("room attr = %q", tm.AttrValue("room"))
	}
	if got := tm.ChildText("Value"); got != "10am" {
		t.Errorf("Value = %q", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []*Config{
		{Source: "", Rules: []*Rule{{Name: "a", Begin: "x", End: "y"}}},
		{Source: "s"},
		{Source: "s", Rules: []*Rule{{Name: "", Begin: "x", End: "y"}}},
		{Source: "s", Rules: []*Rule{{Name: "a", Begin: "(", End: "y"}}},
		{Source: "s", Rules: []*Rule{{Name: "a", Begin: "x", End: "("}}},
		{Source: "s", Rules: []*Rule{{Name: "a", Begin: "x", End: "y", Rules: []*Rule{{Name: "b", Begin: "(", End: ""}}}}},
	}
	for i, c := range bad {
		if _, err := Extract(c, "anything"); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg := umdConfig()
	cfg.Rules[0].Rules = append(cfg.Rules[0].Rules, &Rule{
		Name: "Home", Begin: "<a>", End: "</a>", Mode: ModeLink, Optional: true,
		Attrs: []*AttrRule{{Name: "k", Begin: "q", End: "r"}},
	})
	text := MarshalConfig(cfg)
	parsed, err := ParseConfig(text)
	if err != nil {
		t.Fatalf("ParseConfig: %v\n%s", err, text)
	}
	// Extraction with the round-tripped config must produce the same output.
	d1, err := Extract(cfg, umdPage)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Extract(parsed, umdPage)
	if err != nil {
		t.Fatal(err)
	}
	if !xmldom.Equal(d1.Root, d2.Root) {
		t.Errorf("round-tripped config extracts differently:\n%s\nvs\n%s", d1.Encode(), d2.Encode())
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []string{
		`not xml`,
		`<wrong/>`,
		`<tess source="s"><rule name="a" begin="x" end="y" repeat="maybe"/></tess>`,
		`<tess source="s"><rule name="a" begin="x" end="y" mode="bogus"/></tess>`,
		`<tess source="s"><rule name="a" begin="(" end="y"/></tess>`,
	}
	for _, src := range cases {
		if _, err := ParseConfig(src); err == nil {
			t.Errorf("ParseConfig(%q): expected error", src)
		}
	}
}

func TestStripTags(t *testing.T) {
	cases := map[string]string{
		`<b>Operating</b> Systems`: "Operating Systems",
		`a&amp;b &lt;c&gt;`:        "a&b <c>",
		`line1<br>line2<br/>line3`: "line1 line2 line3",
		`  lots   of
		 space `: "lots of space",
		`XML und Datenbanken &uuml;ber alles`: "XML und Datenbanken über alles",
		``:                                    "",
	}
	for in, want := range cases {
		if got := StripTags(in); got != want {
			t.Errorf("StripTags(%q) = %q, want %q", in, got, want)
		}
	}
}

// StripTags decodes an entity when its ';' arrives, looking back at most
// maxEntityLen bytes for the '&' that starts it; that holds only for
// entities of this shape.
func TestEntityTableShape(t *testing.T) {
	for i := 0; i < len(entities); i += 2 {
		e := entities[i]
		if len(e) > maxEntityLen || e[0] != '&' || e[len(e)-1] != ';' ||
			strings.Count(e, "&") != 1 || strings.ContainsAny(e, " \t\n\f\r") {
			t.Errorf("entity %q does not fit StripTags' decoder", e)
		}
	}
}

func TestFirstLink(t *testing.T) {
	if got := FirstLink(`<a href="http://x/y">t</a> <a href="http://z">u</a>`); got != "http://x/y" {
		t.Errorf("FirstLink = %q", got)
	}
	if got := FirstLink(`<a href='http://q'>t</a>`); got != "http://q" {
		t.Errorf("FirstLink single-quote = %q", got)
	}
	if got := FirstLink(`no links`); got != "" {
		t.Errorf("FirstLink = %q, want empty", got)
	}
}

func TestMarkupNodes(t *testing.T) {
	nodes := MarkupNodes(`pre <a href="http://x">mid</a> post`)
	if len(nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(nodes))
	}
	a, ok := nodes[1].(*xmldom.Element)
	if !ok || a.AttrValue("href") != "http://x" || a.Text() != "mid" {
		t.Errorf("anchor node wrong: %v", nodes[1])
	}
}

// Property: extraction is deterministic — running the same config twice on
// the same page yields identical documents.
func TestQuickExtractDeterministic(t *testing.T) {
	cfg := umdConfig()
	f := func(seed int64) bool {
		d1, err1 := Extract(cfg, umdPage)
		d2, err2 := Extract(cfg, umdPage)
		if err1 != nil || err2 != nil {
			return false
		}
		return xmldom.Equal(d1.Root, d2.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: StripTags output never contains markup characters from tags.
func TestQuickStripTagsNoTags(t *testing.T) {
	f := func(s string) bool {
		out := StripTags("<b>" + s + "</b>")
		return !strings.Contains(out, "<b>") && !strings.Contains(out, "</b>")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestModeDeepExtraction(t *testing.T) {
	pages := map[string]string{
		"http://x/home": `<html><body><h1>Jane Doe</h1><em class="area">Databases</em></body></html>`,
	}
	fetch := func(url string) (string, error) {
		p, ok := pages[url]
		if !ok {
			return "", &FieldError{Rule: "fetch", Which: "begin", Around: url}
		}
		return p, nil
	}
	cfg := &Config{
		Source: "s",
		Rules: []*Rule{{
			Name: "Instructor", Begin: `<td>`, End: `</td>`, Mode: ModeDeep,
			Rules: []*Rule{
				{Name: "Name", Begin: `<h1>`, End: `</h1>`},
				{Name: "Area", Begin: `<em class="area">`, End: `</em>`},
			},
		}},
	}
	page := `<td><a href="http://x/home">Doe</a></td>`

	doc, err := ExtractPages(cfg, page, fetch)
	if err != nil {
		t.Fatal(err)
	}
	in := doc.Root.Child("Instructor")
	if in.AttrValue("href") != "http://x/home" {
		t.Errorf("href = %q", in.AttrValue("href"))
	}
	if in.ChildText("Name") != "Jane Doe" || in.ChildText("Area") != "Databases" {
		t.Errorf("deep fields: %s", in)
	}

	// Nil fetcher: the paper's fallback — the URL is the value.
	doc, err = Extract(cfg, page)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root.ChildText("Instructor"); got != "http://x/home" {
		t.Errorf("fallback = %q", got)
	}

	// No link in the region: visible text is the value.
	doc, err = ExtractPages(cfg, `<td>Plain Name</td>`, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root.ChildText("Instructor"); got != "Plain Name" {
		t.Errorf("no-link value = %q", got)
	}

	// Fetch failure surfaces as an error.
	if _, err := ExtractPages(cfg, `<td><a href="http://x/missing">q</a></td>`, fetch); err == nil {
		t.Error("expected fetch error")
	}
}

func TestModeDeepConfigRoundTrip(t *testing.T) {
	cfg := &Config{
		Source: "s",
		Rules: []*Rule{{
			Name: "I", Begin: `a`, End: `b`, Mode: ModeDeep,
			Rules: []*Rule{{Name: "N", Begin: `c`, End: `d`}},
		}},
	}
	parsed, err := ParseConfig(MarshalConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Rules[0].Mode != ModeDeep || len(parsed.Rules[0].Rules) != 1 {
		t.Errorf("round trip lost deep mode: %+v", parsed.Rules[0])
	}
}

func TestEmptyMarkersDoNotLoopForever(t *testing.T) {
	cfg := &Config{
		Source: "s",
		Rules:  []*Rule{{Name: "X", Begin: ``, End: ``, Repeat: true}},
	}
	doc, err := Extract(cfg, "anything at all")
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	// One (empty) match is emitted; the scan then stops instead of looping.
	if got := len(doc.Root.ChildrenNamed("X")); got != 1 {
		t.Errorf("X count = %d, want 1", got)
	}
}
