package catalog

import (
	"fmt"
	"strings"
	"testing"

	"thalia/internal/hetero"
	"thalia/internal/tess"
	"thalia/internal/xquery"
)

func TestTestbedSize(t *testing.T) {
	all := All()
	if len(all) < 25 {
		t.Fatalf("testbed has %d sources, the paper promises 25+", len(all))
	}
	names := map[string]bool{}
	for _, s := range all {
		if names[s.Name] {
			t.Errorf("duplicate source %s", s.Name)
		}
		names[s.Name] = true
	}
	for _, key := range []string{"brown", "cmu", "umd", "gatech", "eth", "toronto", "umich", "ucsd", "umass"} {
		if !names[key] {
			t.Errorf("missing paper-named source %s", key)
		}
	}
}

// Every source must complete the full THALIA pipeline: render HTML, extract
// with its TESS wrapper, infer a schema, and have the extracted document
// validate against that schema.
func TestEverySourceExtractsAndValidates(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			page := s.Page()
			if !strings.Contains(page, "<html>") {
				t.Error("page does not look like HTML")
			}
			doc, err := s.Document()
			if err != nil {
				t.Fatalf("Document: %v", err)
			}
			if doc.Root.Name != s.Name {
				t.Errorf("root = %q, want %q", doc.Root.Name, s.Name)
			}
			if len(doc.Root.ChildElements()) == 0 {
				t.Fatal("no courses extracted")
			}
			if len(doc.Root.ChildElements()) < 3 {
				t.Errorf("only %d courses extracted", len(doc.Root.ChildElements()))
			}
			sch, err := s.Schema()
			if err != nil {
				t.Fatalf("Schema: %v", err)
			}
			if errs := sch.Validate(doc); len(errs) != 0 {
				t.Errorf("extracted document does not validate: %v", errs[0])
			}
			if len(s.Exhibits) == 0 {
				t.Error("source declares no heterogeneity exhibits")
			}
		})
	}
}

func TestCoursesPerSource(t *testing.T) {
	total := 0
	for _, s := range All() {
		if len(s.Courses) < 5 {
			t.Errorf("%s has only %d courses", s.Name, len(s.Courses))
		}
		total += len(s.Courses)
	}
	if total < 250 {
		t.Errorf("testbed has only %d courses total", total)
	}
}

// The paper's sample elements must be present verbatim in the extraction.
func TestPaperSampleElements(t *testing.T) {
	xml := func(name string) string {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.XML()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := []struct {
		source string
		wants  []string
	}{
		{"gatech", []string{"<Instructor>Mark</Instructor>", "Intro-Network Management", "JR or SR", "20381"}},
		{"cmu", []string{"<Lecturer>Mark</Lecturer>", "Database System Design and Implementation",
			"<Units>12</Units>", "1:30 - 2:50", "First course in sequence", "Song/Wing",
			"Specification and Verification", "Computer Networks", "<Day>F</Day>"}},
		{"umd", []string{"Data Structures", "CMSC420", "Software Engineering",
			"Singh, H.", "Memon, A.", "(Seats=40, Open=2, Waitlist=0)"}},
		{"brown", []string{"CS016", "Intro to Algorithms &amp; Data Structures",
			"http://www.cs.brown.edu/courses/cs016/", "Labs in Sunlab", "Computer Networks"}},
		{"eth", []string{"XML und Datenbanken", "<Umfang>2V1U</Umfang>", "Vernetzte Systeme (3. Semester)"}},
		{"toronto", []string{"Automated Verification", "Model Checking", "Clarke, Grumberg, Peled"}},
		{"umich", []string{"Database Management Systems", "<prerequisite>None</prerequisite>"}},
		{"ucsd", []string{"Database System Implementation", "<Fall2003>Yannis</Fall2003>", "<Winter2004>Deutsch</Winter2004>"}},
		{"umass", []string{"CS430", "16:00-17:15"}},
	}
	for _, c := range cases {
		t.Run(c.source, func(t *testing.T) {
			out := xml(c.source)
			for _, want := range c.wants {
				if !strings.Contains(out, want) {
					t.Errorf("%s.xml missing %q", c.source, want)
				}
			}
		})
	}
}

// All twelve heterogeneity cases must be exhibited by at least one source.
func TestAllHeterogeneitiesCovered(t *testing.T) {
	covered := map[hetero.Case]bool{}
	for _, s := range All() {
		for _, c := range s.Exhibits {
			covered[c] = true
		}
	}
	for _, c := range hetero.AllCases() {
		if !covered[c] {
			t.Errorf("no source exhibits %v", c)
		}
	}
}

func TestBrownTitleComposition(t *testing.T) {
	s, err := Get("brown")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.Document()
	if err != nil {
		t.Fatal(err)
	}
	// CS016's Title is mixed: a hyperlink plus the hour/day/time tail.
	var found bool
	for _, c := range doc.Root.ChildrenNamed("Course") {
		if c.ChildText("CrsNum") != "CS016" {
			continue
		}
		found = true
		title := c.Child("Title")
		if title == nil {
			t.Fatal("no Title")
		}
		a := title.Child("a")
		if a == nil {
			t.Fatalf("Title not a union type: %s", title)
		}
		if got := a.Text(); got != "Intro to Algorithms & Data Structures" {
			t.Errorf("anchor text = %q", got)
		}
		if !strings.Contains(title.DeepText(), "D hr. MWF 11-12") {
			t.Errorf("composite tail missing: %q", title.DeepText())
		}
	}
	if !found {
		t.Error("CS016 not extracted")
	}
}

func TestCMUCommentAttachedToTitle(t *testing.T) {
	s, _ := Get("cmu")
	doc, err := s.Document()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range doc.Root.ChildrenNamed("Course") {
		if c.ChildText("CourseNumber") != "15-415" {
			continue
		}
		title := c.Child("CourseTitle")
		if got := title.Text(); got != "Database System Design and Implementation" {
			t.Errorf("title text = %q", got)
		}
		if got := title.ChildText("Comment"); got != "First course in sequence" {
			t.Errorf("comment = %q", got)
		}
		return
	}
	t.Fatal("15-415 not extracted")
}

func TestTorontoMissingTextbook(t *testing.T) {
	s, _ := Get("toronto")
	doc, err := s.Document()
	if err != nil {
		t.Fatal(err)
	}
	withBook, withoutBook := 0, 0
	for _, c := range doc.Root.ChildrenNamed("course") {
		if c.HasChild("text") {
			withBook++
		} else {
			withoutBook++
		}
	}
	if withBook == 0 || withoutBook == 0 {
		t.Errorf("want both flavors of textbook presence, got %d with / %d without", withBook, withoutBook)
	}
}

func TestResolver(t *testing.T) {
	r := Resolver()
	for _, uri := range []string{"cmu.xml", "cmu"} {
		d, err := r(uri)
		if err != nil {
			t.Fatalf("resolve %s: %v", uri, err)
		}
		if d.Root.Name != "cmu" {
			t.Errorf("resolve %s: root %q", uri, d.Root.Name)
		}
	}
	if _, err := r("nowhere.xml"); err == nil {
		t.Error("expected error for unknown source")
	}
}

// The testbed is queryable end to end with the paper's own query shape.
func TestEndToEndQuery(t *testing.T) {
	ctx := xquery.NewContext(Resolver())
	seq, err := xquery.EvalQuery(`FOR $b in doc("gatech.xml")/gatech/Course
		WHERE $b/Instructor = "Mark"
		RETURN $b/Title`, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 1 || xquery.ItemString(seq[0]) != "Intro-Network Management" {
		t.Errorf("end-to-end query: %v", seq)
	}
}

func TestClockFormats(t *testing.T) {
	cases := []struct {
		min               int
		c12, c12bare, c24 string
	}{
		{13*60 + 30, "1:30pm", "1:30", "13:30"},
		{9 * 60, "9:00am", "9:00", "09:00"},
		{0, "12:00am", "12:00", "00:00"},
		{12 * 60, "12:00pm", "12:00", "12:00"},
		{16*60 + 5, "4:05pm", "4:05", "16:05"},
	}
	for _, c := range cases {
		if got := Clock12(c.min); got != c.c12 {
			t.Errorf("Clock12(%d) = %q, want %q", c.min, got, c.c12)
		}
		if got := Clock12Bare(c.min); got != c.c12bare {
			t.Errorf("Clock12Bare(%d) = %q, want %q", c.min, got, c.c12bare)
		}
		if got := Clock24(c.min); got != c.c24 {
			t.Errorf("Clock24(%d) = %q, want %q", c.min, got, c.c24)
		}
	}
}

// TestClock24MatchesPrintf pins Clock24's hand-rolled digits to the %02d
// spelling across every minute of a day and the out-of-range inputs that
// take the fmt path.
func TestClock24MatchesPrintf(t *testing.T) {
	for min := -90; min <= 100*60+90; min++ {
		want := fmt.Sprintf("%02d:%02d", min/60, min%60)
		if got := Clock24(min); got != want {
			t.Fatalf("Clock24(%d) = %q, want %q", min, got, want)
		}
		if got := string(AppendClock24([]byte("at "), min)); got != "at "+want {
			t.Fatalf("AppendClock24(%d) = %q, want %q", min, got, "at "+want)
		}
	}
}

func TestDeterministicExtraction(t *testing.T) {
	// Materialization is cached, so compare two fresh renders instead.
	s, _ := Get("umd")
	if s.RenderHTML(s) != s.RenderHTML(s) {
		t.Error("rendering is not deterministic")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("unknown-u"); err == nil {
		t.Error("expected error")
	}
}

func TestNamesSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Errorf("sources not sorted by name: %q >= %q", all[i-1].Name, all[i].Name)
		}
	}
}

// Deep extraction (the paper's future-work feature, implemented as an
// extension): Brown's Instructor column follows the home-page link and
// extracts first name and specialty — the paper's own examples of
// information living on the continuation page.
func TestDeepExtractionBrown(t *testing.T) {
	s, err := Get("brown")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := tess.ExtractPages(BrownDeepWrapper(), s.Page(), s.Fetch)
	if err != nil {
		t.Fatalf("deep extract: %v", err)
	}
	for _, c := range doc.Root.ChildrenNamed("Course") {
		if c.ChildText("CrsNum") != "CS016" {
			continue
		}
		in := c.Child("Instructor")
		if in == nil {
			t.Fatal("no Instructor")
		}
		if got := in.AttrValue("href"); got != "http://www.cs.brown.edu/~twd" {
			t.Errorf("href = %q", got)
		}
		if got := in.ChildText("FirstName"); got != "Thomas" {
			t.Errorf("FirstName = %q", got)
		}
		if got := in.ChildText("Specialty"); got != "Operating Systems" {
			t.Errorf("Specialty = %q", got)
		}
		if got := in.ChildText("Name"); got != "Thomas Doeppner" {
			t.Errorf("Name = %q", got)
		}
		return
	}
	t.Fatal("CS016 not found")
}

// Without a fetcher the deep wrapper degrades to the paper's documented
// behaviour: the URL of the link is returned as the extracted value.
func TestDeepExtractionFallsBackToURL(t *testing.T) {
	s, err := Get("brown")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := tess.Extract(BrownDeepWrapper(), s.Page())
	if err != nil {
		t.Fatal(err)
	}
	first := doc.Root.ChildrenNamed("Course")[0]
	if got := first.ChildText("Instructor"); got != "http://www.cs.brown.edu/~twd" {
		t.Errorf("fallback value = %q, want the URL", got)
	}
}

func TestFetchUnknownURL(t *testing.T) {
	s, err := Get("brown")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch("http://nowhere.invalid/x"); err == nil {
		t.Error("expected error for unknown linked page")
	}
	page, err := s.Fetch("http://www.cs.brown.edu/~ugur")
	if err != nil || !strings.Contains(page, "Database Systems") {
		t.Errorf("Fetch home page: %v", err)
	}
}

// The French source carries French element names and French titles — the
// second language dimension of case 5.
func TestFrenchSource(t *testing.T) {
	s, err := Get("epfl")
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.XML()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<Matière>", "<Intitulé>", "<Enseignant>", "<Horaire>", "<Salle>"} {
		if !strings.Contains(out, want) {
			t.Errorf("epfl.xml missing %q", want)
		}
	}
	// At least one French title must appear (the pool maps titles through
	// frenchTitles).
	hasFrench := false
	for _, c := range s.Courses {
		if FrenchTitle(c.Title) != c.Title && strings.Contains(out, FrenchTitle(c.Title)) {
			hasFrench = true
		}
	}
	if !hasFrench {
		t.Error("no French course titles in epfl extraction")
	}
}

// MaterializeAll warms every source cache concurrently; afterwards every
// Document() call returns the same shared (read-only) materialized value,
// and racing warm-up against direct Document access is safe.
func TestMaterializeAll(t *testing.T) {
	if err := MaterializeAll(8); err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		d1, err := s.Document()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		d2, err := s.Document()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if d1 != d2 {
			t.Errorf("%s: Document() rebuilt instead of reusing the cache", s.Name)
		}
	}
	// Degenerate worker counts clamp rather than deadlock.
	if err := MaterializeAll(0); err != nil {
		t.Fatal(err)
	}
	if err := MaterializeAll(1000); err != nil {
		t.Fatal(err)
	}
}
