package xsd

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"thalia/internal/xmldom"
)

const brownSample = `<brown>
  <Course>
    <CrsNum>CS016</CrsNum>
    <Title>Intro to Algorithms</Title>
    <Instructor>Doeppner</Instructor>
    <Room>CIT 165</Room>
  </Course>
  <Course>
    <CrsNum>CS127</CrsNum>
    <Title>Databases</Title>
    <Instructor>Cetintemel</Instructor>
  </Course>
</brown>`

func TestInferBasic(t *testing.T) {
	doc := xmldom.MustParse(brownSample)
	s, err := Infer("brown", doc)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if s.Root.Name != "brown" || s.Root.Type != TypeComplex {
		t.Fatalf("root decl wrong: %+v", s.Root)
	}
	course := s.Root.Child("Course")
	if course == nil {
		t.Fatal("no Course decl")
	}
	if course.MaxOccurs != Unbounded {
		t.Error("Course should be unbounded (occurs twice)")
	}
	room := course.Child("Room")
	if room == nil {
		t.Fatal("no Room decl")
	}
	if room.MinOccurs != 0 {
		t.Error("Room should be optional (absent in second course) — the Nulls heterogeneity")
	}
	title := course.Child("Title")
	if title == nil || title.MinOccurs != 1 {
		t.Errorf("Title should be required: %+v", title)
	}
	if title.Type != TypeString {
		t.Errorf("Title type = %v, want string", title.Type)
	}
}

func TestInferTypes(t *testing.T) {
	doc := xmldom.MustParse(`<cmu><Course><Units>12</Units><Fee>10.5</Fee><Home>http://cs.cmu.edu</Home><Note></Note></Course></cmu>`)
	s, err := Infer("cmu", doc)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Root.Child("Course")
	for name, want := range map[string]Type{
		"Units": TypeInteger, "Fee": TypeDecimal, "Home": TypeAnyURI, "Note": TypeEmpty,
	} {
		d := c.Child(name)
		if d == nil {
			t.Fatalf("missing decl %s", name)
		}
		if d.Type != want {
			t.Errorf("%s type = %v, want %v", name, d.Type, want)
		}
	}
}

func TestInferWidening(t *testing.T) {
	doc := xmldom.MustParse(`<r><v>1</v><v>2.5</v><v>3</v></r>`)
	s, err := Infer("r", doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Root.Child("v").Type; got != TypeDecimal {
		t.Errorf("widened type = %v, want decimal", got)
	}
	doc2 := xmldom.MustParse(`<r><v>1</v><v>abc</v></r>`)
	s2, _ := Infer("r", doc2)
	if got := s2.Root.Child("v").Type; got != TypeString {
		t.Errorf("widened type = %v, want string", got)
	}
}

func TestInferMixedContent(t *testing.T) {
	// Brown's Title/Time column embeds a hyperlink inside the title string
	// (the union-type heterogeneity, case 3).
	doc := xmldom.MustParse(`<brown><Course><Title><a href="http://x">Intro to Algorithms</a>D hr. MWF 11-12</Title></Course></brown>`)
	s, err := Infer("brown", doc)
	if err != nil {
		t.Fatal(err)
	}
	title := s.Root.Child("Course").Child("Title")
	if title.Type != TypeComplex || !title.Mixed {
		t.Errorf("Title should be mixed complex, got %+v", title)
	}
	a := title.Child("a")
	if a == nil || a.Attribute("href") == nil {
		t.Error("missing nested link declaration")
	}
}

func TestInferAttributeOptional(t *testing.T) {
	doc := xmldom.MustParse(`<r><c id="1" extra="x"/><c id="2"/></r>`)
	s, err := Infer("r", doc)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Root.Child("c")
	if id := c.Attribute("id"); id == nil || !id.Required {
		t.Errorf("id should be required: %+v", id)
	}
	if ex := c.Attribute("extra"); ex == nil || ex.Required {
		t.Errorf("extra should be optional: %+v", ex)
	}
}

func TestInferAcrossDocuments(t *testing.T) {
	d1 := xmldom.MustParse(`<r><a>1</a></r>`)
	d2 := xmldom.MustParse(`<r><a>2</a><b>x</b></r>`)
	s, err := Infer("r", d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Root.Child("b")
	if b == nil || b.MinOccurs != 0 {
		t.Errorf("b should be optional (absent in first doc): %+v", b)
	}
	if _, err := Infer("r", d1, xmldom.MustParse(`<q/>`)); err == nil {
		t.Error("expected error for inconsistent roots")
	}
}

func TestInferNoDocs(t *testing.T) {
	if _, err := Infer("x"); err == nil {
		t.Error("expected error for no documents")
	}
}

func TestSerializeParseSchema(t *testing.T) {
	doc := xmldom.MustParse(brownSample)
	s, err := Infer("brown", doc)
	if err != nil {
		t.Fatal(err)
	}
	enc := s.Encode()
	if !strings.Contains(enc, "xs:schema") || !strings.Contains(enc, `name="Course"`) {
		t.Fatalf("unexpected encoding:\n%s", enc)
	}
	parsed, err := xmldom.ParseString(enc)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	s2, err := FromXML(parsed)
	if err != nil {
		t.Fatalf("FromXML: %v", err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Errorf("schema round trip mismatch:\n%+v\nvs\n%+v", s.Root, s2.Root)
	}
}

func TestValidateAcceptsSource(t *testing.T) {
	doc := xmldom.MustParse(brownSample)
	s, err := Infer("brown", doc)
	if err != nil {
		t.Fatal(err)
	}
	if errs := s.Validate(doc); len(errs) != 0 {
		t.Errorf("source document should validate against inferred schema; got %v", errs)
	}
}

func TestValidateRejects(t *testing.T) {
	s, err := Infer("brown", xmldom.MustParse(brownSample))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, doc, wantSubstr string
	}{
		{"wrong root", `<cmu/>`, "root element"},
		{"undeclared element", `<brown><Course><CrsNum>1</CrsNum><Title>t</Title><Instructor>i</Instructor><Weird>x</Weird></Course></brown>`, "undeclared element"},
		{"missing required", `<brown><Course><CrsNum>1</CrsNum><Instructor>i</Instructor></Course></brown>`, `element "Title"`},
		{"undeclared attribute", `<brown><Course lang="en"><CrsNum>1</CrsNum><Title>t</Title><Instructor>i</Instructor></Course></brown>`, "undeclared attribute"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			errs := s.Validate(xmldom.MustParse(c.doc))
			if len(errs) == 0 {
				t.Fatal("expected validation errors")
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), c.wantSubstr) {
					found = true
				}
			}
			if !found {
				t.Errorf("no error containing %q in %v", c.wantSubstr, errs)
			}
		})
	}
}

func TestValidateSimpleTypes(t *testing.T) {
	s, err := Infer("r", xmldom.MustParse(`<r><n>5</n></r>`))
	if err != nil {
		t.Fatal(err)
	}
	if errs := s.Validate(xmldom.MustParse(`<r><n>abc</n></r>`)); len(errs) == 0 {
		t.Error("string where integer declared should fail")
	}
	if errs := s.Validate(xmldom.MustParse(`<r><n>7</n></r>`)); len(errs) != 0 {
		t.Errorf("valid integer rejected: %v", errs)
	}
}

func TestInferValueType(t *testing.T) {
	cases := map[string]Type{
		"":                      TypeEmpty,
		"  ":                    TypeEmpty,
		"42":                    TypeInteger,
		"-7":                    TypeInteger,
		"3.14":                  TypeDecimal,
		"http://cs.brown.edu":   TypeAnyURI,
		"https://example.com/x": TypeAnyURI,
		"CS016":                 TypeString,
		"1:30 - 2:50":           TypeString,
	}
	for v, want := range cases {
		if got := InferValueType(v); got != want {
			t.Errorf("InferValueType(%q) = %v, want %v", v, got, want)
		}
	}
}

// The numeric types follow XML Schema's lexical spaces, not Go's number
// syntax: no exponent, NaN, infinity, hex float or digit separator, and no
// 64-bit bound on xs:integer. Inference and validation agree on each value.
func TestNumericLexicalSpaces(t *testing.T) {
	for _, tc := range []struct {
		v    string
		want Type
	}{
		{"0", TypeInteger},
		{"+5", TypeInteger},
		{"-007", TypeInteger},
		{" 42 ", TypeInteger},
		{"12345678901234567890", TypeInteger},
		{"-98765432109876543210123", TypeInteger},
		{"1.", TypeDecimal},
		{".5", TypeDecimal},
		{"-.5", TypeDecimal},
		{"+3.14", TypeDecimal},
		{"NaN", TypeString},
		{"Inf", TypeString},
		{"-infinity", TypeString},
		{"1e5", TypeString},
		{"0x1p3", TypeString},
		{"1_000", TypeString},
		{".", TypeString},
		{"+", TypeString},
		{"-.", TypeString},
		{"1.2.3", TypeString},
		{"1 000", TypeString},
		{"\u0663", TypeString}, // ARABIC-INDIC DIGIT THREE
	} {
		if got := InferValueType(tc.v); got != tc.want {
			t.Errorf("InferValueType(%q) = %v, want %v", tc.v, got, tc.want)
		}
		for _, typ := range []Type{TypeInteger, TypeDecimal} {
			s := &Schema{Source: "x", Root: &ElementDecl{Name: "x", Type: typ, MinOccurs: 1, MaxOccurs: 1}}
			valid := len(s.Validate(xmldom.NewDocument(xmldom.NewElement("x").AppendText(tc.v)))) == 0
			want := tc.want == typ || (typ == TypeDecimal && tc.want == TypeInteger)
			if valid != want {
				t.Errorf("%q as %v: valid = %v, want %v", tc.v, typ, valid, want)
			}
		}
	}
}

// Property: a schema inferred from any random document validates that
// document — inference is sound by construction.
func TestQuickInferredSchemaValidatesSource(t *testing.T) {
	f := func(rd randomDoc) bool {
		s, err := Infer("t", rd.Doc)
		if err != nil {
			return false
		}
		errs := s.Validate(rd.Doc)
		if len(errs) != 0 {
			t.Logf("doc: %s\nschema: %s\nerrs: %v", rd.Doc.Root, s.Encode(), errs)
		}
		return len(errs) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: schema serialization round-trips through XML.
func TestQuickSchemaRoundTrip(t *testing.T) {
	f := func(rd randomDoc) bool {
		s, err := Infer("t", rd.Doc)
		if err != nil {
			return false
		}
		doc, err := xmldom.ParseString(s.Encode())
		if err != nil {
			return false
		}
		s2, err := FromXML(doc)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(s, s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// randomDoc mirrors the xmldom test generator but stays local to avoid
// exporting test helpers across packages.
type randomDoc struct{ Doc *xmldom.Document }

// Generate implements quick.Generator.
func (randomDoc) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomDoc{Doc: xmldom.NewDocument(randElem(r, 3))})
}

func randElem(r *rand.Rand, depth int) *xmldom.Element {
	names := []string{"Course", "Title", "Section", "Time", "Instructor"}
	e := xmldom.NewElement(names[r.Intn(len(names))])
	for i := 0; i < r.Intn(2); i++ {
		e.SetAttr("a"+string(rune('0'+i)), randVal(r))
	}
	if depth > 0 && r.Intn(2) == 0 {
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			e.Append(randElem(r, depth-1))
		}
	} else {
		e.AppendText(randVal(r))
	}
	return e
}

func randVal(r *rand.Rand) string {
	switch r.Intn(4) {
	case 0:
		return "42"
	case 1:
		return "3.5"
	case 2:
		return "http://example.edu/x"
	default:
		return "Databases"
	}
}
