package xmldom

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimple(t *testing.T) {
	doc, err := ParseString(`<brown><Course><CrsNum>CS016</CrsNum><Title>Intro to Algorithms</Title></Course></brown>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if doc.Root.Name != "brown" {
		t.Fatalf("root = %q, want brown", doc.Root.Name)
	}
	course := doc.Root.Child("Course")
	if course == nil {
		t.Fatal("missing Course child")
	}
	if got := course.ChildText("CrsNum"); got != "CS016" {
		t.Errorf("CrsNum = %q, want CS016", got)
	}
	if got := course.ChildText("Title"); got != "Intro to Algorithms" {
		t.Errorf("Title = %q", got)
	}
}

func TestParseAttributes(t *testing.T) {
	doc := MustParse(`<Course id="15-415" level="grad"><Title lang="en">DB</Title></Course>`)
	if got := doc.Root.AttrValue("id"); got != "15-415" {
		t.Errorf("id = %q", got)
	}
	if got := doc.Root.AttrValue("level"); got != "grad" {
		t.Errorf("level = %q", got)
	}
	if _, ok := doc.Root.Attr("missing"); ok {
		t.Error("Attr(missing) reported present")
	}
}

func TestParseEntities(t *testing.T) {
	doc := MustParse(`<t>Algorithms &amp; Data Structures &lt;intro&gt;</t>`)
	want := "Algorithms & Data Structures <intro>"
	if got := doc.Root.Text(); got != want {
		t.Errorf("Text = %q, want %q", got, want)
	}
}

func TestParseMixedContent(t *testing.T) {
	doc := MustParse(`<Title>Intro <a href="http://x">link</a> tail</Title>`)
	root := doc.Root
	if len(root.Children) != 3 {
		t.Fatalf("children = %d, want 3 (%s)", len(root.Children), root)
	}
	if got := root.DeepText(); got != "Intro link tail" {
		t.Errorf("DeepText = %q", got)
	}
	a := root.Child("a")
	if a == nil || a.AttrValue("href") != "http://x" {
		t.Errorf("a = %v", a)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                       // empty
		`<a><b></a>`,             // mismatched
		`<a></a><b></b>`,         // two roots
		`text only`,              // no element
		`<a attr=oops></a>`,      // bad attribute
		`<a><unclosed></a></a>*`, // mismatched nesting
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q): expected error", src)
		}
	}
}

func TestWhitespaceDropped(t *testing.T) {
	doc := MustParse("<a>\n  <b>x</b>\n  <c>y</c>\n</a>")
	if n := len(doc.Root.Children); n != 2 {
		t.Fatalf("children = %d, want 2", n)
	}
}

func TestNavigation(t *testing.T) {
	doc := MustParse(`<umd><Course><Section><Time room="KEY0106">10am</Time></Section><Section><Time room="EGR2154">11am</Time></Section></Course></umd>`)
	secs := doc.Root.Descendants("Section")
	if len(secs) != 2 {
		t.Fatalf("Descendants(Section) = %d, want 2", len(secs))
	}
	times := doc.Root.Descendants("Time")
	if len(times) != 2 || times[0].AttrValue("room") != "KEY0106" {
		t.Fatalf("Descendants(Time) wrong: %v", times)
	}
	all := doc.Root.Descendants("*")
	if len(all) != 5 {
		t.Fatalf("Descendants(*) = %d, want 5", len(all))
	}
	course := doc.Root.Child("Course")
	if got := len(course.ChildrenNamed("Section")); got != 2 {
		t.Fatalf("ChildrenNamed = %d", got)
	}
	if got := times[1].Path(); got != "umd/Course/Section/Time" {
		t.Errorf("Path = %q", got)
	}
}

func TestBuilderAndAttrOps(t *testing.T) {
	e := NewElement("Course").SetAttr("id", "1").SetAttr("id", "2")
	if v := e.AttrValue("id"); v != "2" {
		t.Errorf("SetAttr replace: got %q", v)
	}
	e.SetAttr("x", "y")
	if v := e.AttrValue("x"); v != "y" {
		t.Error("second attr lost")
	}
	if _, ok := e.Attr("z"); ok {
		t.Error("Attr reports an absent attribute")
	}
	e.AppendText("hello")
	if e.Text() != "hello" {
		t.Errorf("Text = %q", e.Text())
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := MustParse(`<a k="v"><b>x</b></a>`).Root
	cp := orig.Clone()
	if !Equal(orig, cp) {
		t.Fatal("clone not equal to original")
	}
	cp.Child("b").Children = nil
	cp.SetAttr("k", "changed")
	if orig.ChildText("b") != "x" || orig.AttrValue("k") != "v" {
		t.Error("mutating clone affected original")
	}
}

func TestEqualTrimsWhitespace(t *testing.T) {
	a := MustParse("<a><b> x </b></a>").Root
	b := MustParse("<a><b>x</b></a>").Root
	if !Equal(a, b) {
		t.Error("Equal should ignore surrounding whitespace in text")
	}
	c := MustParse("<a><b>y</b></a>").Root
	if Equal(a, c) {
		t.Error("Equal should detect differing text")
	}
	d := MustParse(`<a f="1"><b>x</b></a>`).Root
	if Equal(a, d) {
		t.Error("Equal should detect differing attributes")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	src := `<cmu><Course units="12"><CourseTitle>Database System Design &amp; Impl</CourseTitle><Lecturer>Ailamaki</Lecturer></Course></cmu>`
	doc := MustParse(src)
	out := doc.Encode()
	doc2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if !Equal(doc.Root, doc2.Root) {
		t.Errorf("round trip changed document:\n%s\nvs\n%s", doc.Root, doc2.Root)
	}
	if !strings.HasPrefix(out, "<?xml") {
		t.Error("missing declaration")
	}
	compact := doc.EncodeCompact()
	if strings.Contains(compact, "\n") || strings.Contains(compact, "<?xml") {
		t.Errorf("EncodeCompact not compact: %q", compact)
	}
}

func TestEscaping(t *testing.T) {
	e := NewElement("t").SetAttr("a", `he said "<&>"`).AppendText(`5 < 6 & 7 > 2`)
	doc := NewDocument(e)
	out := doc.EncodeCompact()
	doc2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse escaped: %v (%s)", err, out)
	}
	if got := doc2.Root.AttrValue("a"); got != `he said "<&>"` {
		t.Errorf("attr round trip = %q", got)
	}
	if got := doc2.Root.Text(); got != `5 < 6 & 7 > 2` {
		t.Errorf("text round trip = %q", got)
	}
}

// randomElement builds a random but well-formed tree for property testing.
func randomElement(r *rand.Rand, depth int) *Element {
	names := []string{"Course", "Title", "Section", "Time", "Instructor", "Room"}
	e := NewElement(names[r.Intn(len(names))])
	for i := 0; i < r.Intn(3); i++ {
		e.SetAttr("a"+string(rune('0'+i)), randText(r))
	}
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		if depth > 0 && r.Intn(2) == 0 {
			e.Append(randomElement(r, depth-1))
		} else if txt := randText(r); strings.TrimSpace(txt) != "" {
			// Avoid adjacent text siblings: they merge into one node on
			// reparse, which is the canonical form.
			if n := len(e.Children); n > 0 {
				if _, isText := e.Children[n-1].(*Text); isText {
					continue
				}
			}
			e.Append(NewText(txt))
		}
	}
	return e
}

func randText(r *rand.Rand) string {
	const alphabet = `abc XYZ&<>"'123 äöü%`
	runes := []rune(alphabet)
	n := r.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(runes[r.Intn(len(runes))])
	}
	return b.String()
}

type randomDoc struct{ Doc *Document }

// Generate implements quick.Generator.
func (randomDoc) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomDoc{Doc: NewDocument(randomElement(r, 3))})
}

// Property: serialize → parse is the identity on documents (modulo
// whitespace trimming, which Equal accounts for).
func TestQuickSerializeParseRoundTrip(t *testing.T) {
	f := func(rd randomDoc) bool {
		out := rd.Doc.Encode()
		doc2, err := ParseString(out)
		if err != nil {
			t.Logf("reparse error: %v\n%s", err, out)
			return false
		}
		return Equal(rd.Doc.Root, doc2.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Clone always yields an Equal tree.
func TestQuickCloneEqual(t *testing.T) {
	f := func(rd randomDoc) bool {
		return Equal(rd.Doc.Root, rd.Doc.Root.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLocalName(t *testing.T) {
	if got := NewElement("xs:element").LocalName(); got != "element" {
		t.Errorf("LocalName = %q", got)
	}
	if got := NewElement("Course").LocalName(); got != "Course" {
		t.Errorf("LocalName = %q", got)
	}
}

func TestParseSchemaNamespace(t *testing.T) {
	doc := MustParse(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="Course"/></xs:schema>`)
	if doc.Root.Name != "xs:schema" {
		t.Errorf("root = %q, want xs:schema", doc.Root.Name)
	}
	if doc.Root.Child("xs:element") == nil {
		t.Error("missing xs:element child")
	}
}

func TestDocumentWriteToOptions(t *testing.T) {
	doc := MustParse(`<a><b>x</b></a>`)
	var buf strings.Builder
	if err := doc.WriteTo(&buf, WriteOptions{OmitDecl: true, Indent: ""}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "<a><b>x</b></a>" {
		t.Errorf("compact: %q", got)
	}
	buf.Reset()
	if err := doc.WriteTo(&buf, WriteOptions{Indent: "\t"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\t<b>") {
		t.Errorf("tab indent: %q", buf.String())
	}
}

func TestCommentsPreserved(t *testing.T) {
	doc := MustParse(`<a><!--note--><b>x</b></a>`)
	found := false
	for _, c := range doc.Root.Children {
		if cm, ok := c.(*Comment); ok && cm.Data == "note" {
			found = true
		}
	}
	if !found {
		t.Error("comment lost in parse")
	}
	out := doc.EncodeCompact()
	if !strings.Contains(out, "<!--note-->") {
		t.Errorf("comment lost in serialize: %q", out)
	}
	doc2 := MustParse(out)
	if !Equal(doc.Root, doc2.Root) {
		t.Error("comment round trip")
	}
}

func TestPrepend(t *testing.T) {
	e := NewElement("a").AppendText("tail")
	e.Prepend(NewText("head"))
	if got := e.Text(); got != "headtail" {
		t.Errorf("Prepend: %q", got)
	}
	if e.Children[0].Parent() != e {
		t.Error("Prepend did not set parent")
	}
}

func TestElementStringCompact(t *testing.T) {
	e := MustParse(`<a k="v"><b>x &amp; y</b><empty/></a>`).Root
	s := e.String()
	for _, want := range []string{`<a k="v">`, `<b>x &amp; y</b>`, `<empty/>`} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}

func TestEqualNilAndKindMismatch(t *testing.T) {
	if !Equal(nil, nil) {
		t.Error("nil == nil")
	}
	a := MustParse(`<a>x</a>`).Root
	if Equal(a, nil) || Equal(nil, a) {
		t.Error("nil vs element")
	}
	b := MustParse(`<a><x/></a>`).Root
	c := MustParse(`<a>x</a>`).Root
	if Equal(b, c) {
		t.Error("element child vs text child")
	}
}

func TestChildTextMissing(t *testing.T) {
	e := MustParse(`<a><b>x</b></a>`).Root
	if got := e.ChildText("zzz"); got != "" {
		t.Errorf("missing child text: %q", got)
	}
	if e.HasChild("zzz") {
		t.Error("HasChild on missing")
	}
}

func TestPathOfDetachedAndNested(t *testing.T) {
	var nilEl *Element
	if got := nilEl.Path(); got != "" {
		t.Errorf("nil path: %q", got)
	}
	doc := MustParse(`<r><a><b/></a></r>`)
	b := doc.Root.Child("a").Child("b")
	if got := b.Path(); got != "r/a/b" {
		t.Errorf("path: %q", got)
	}
}
