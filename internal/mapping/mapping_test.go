package mapping

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseClock(t *testing.T) {
	cases := map[string]string{
		"16:00":   "16:00",
		"1:30pm":  "13:30",
		"1:30PM":  "13:30",
		"9:00am":  "09:00",
		"12:00pm": "12:00",
		"12:00am": "00:00",
		"1:30":    "13:30", // bare afternoon heuristic
		"10:30":   "10:30", // bare morning
		"4":       "16:00", // Brown's bare hour
		"11":      "11:00",
		"12":      "12:00",
		"8:00":    "08:00",
		"7:15":    "19:15",
		"13:45":   "13:45",
		"00:30":   "00:30",
	}
	for in, want := range cases {
		got, err := To24Hour(in)
		if err != nil {
			t.Errorf("To24Hour(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("To24Hour(%q) = %q, want %q", in, got, want)
		}
	}
	for _, bad := range []string{"", "abc", "25:00", "12:61", "1:3x", "1:234", "1:30pM"} {
		if _, err := To24Hour(bad); err == nil {
			t.Errorf("To24Hour(%q): expected error", bad)
		}
	}
	// With an am/pm marker only hours 1-12 exist.
	for _, bad := range []string{"13:30pm", "23:59PM", "0am", "00:30am"} {
		if _, err := To24Hour(bad); err == nil || !strings.Contains(err.Error(), "bad hour") {
			t.Errorf("To24Hour(%q): error %v, want a bad hour", bad, err)
		}
	}
}

func TestTo12Hour(t *testing.T) {
	cases := map[string]string{
		"13:30": "1:30pm",
		"09:05": "9:05am",
		"00:00": "12:00am",
		"12:00": "12:00pm",
	}
	for in, want := range cases {
		got, err := To12Hour(in)
		if err != nil || got != want {
			t.Errorf("To12Hour(%q) = %q,%v want %q", in, got, err, want)
		}
	}
}

func TestParseClockRange(t *testing.T) {
	cases := map[string]string{
		"1:30 - 2:50":   "13:30-14:50",
		"16:00-17:15":   "16:00-17:15",
		"3-5:30":        "15:00-17:30",
		"11-12":         "11:00-12:00",
		"2:30-4":        "14:30-16:00",
		"10:30 - 11:50": "10:30-11:50",
	}
	for in, want := range cases {
		got, err := RangeTo24(in)
		if err != nil {
			t.Errorf("RangeTo24(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("RangeTo24(%q) = %q, want %q", in, got, want)
		}
	}
	for _, bad := range []string{"1:30", "", "x-y", "11pm-13pm", "Toronto 1-2"} {
		if _, err := RangeTo24(bad); err == nil {
			t.Errorf("RangeTo24(%q): expected error", bad)
		}
	}
}

// Sinks keep the compiler from dropping a measured call's result.
var (
	stringSink  string
	lexiconSink *Lexicon
)

// The kernels' allocation pins: RangeTo24 allocates only its result, and
// the lexicons are built once per process.
func TestKernelAllocations(t *testing.T) {
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"RangeTo24", 1, func() { stringSink, _ = RangeTo24("1:30 - 2:50") }},
		{"NewGermanLexicon", 0, func() { lexiconSink = NewGermanLexicon() }},
		{"NewFrenchLexicon", 0, func() { lexiconSink = NewFrenchLexicon() }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s allocated %.0f times per call, want %.0f", c.name, got, c.want)
		}
	}
}

// Property: To24Hour∘To12Hour is the identity on canonical 24-hour values
// within the academic day (the clock bijection of case 2).
func TestQuickClockBijection(t *testing.T) {
	f := func(h8, m8 uint8) bool {
		h := 8 + int(h8)%12 // 08:00..19:59, the academic day
		m := int(m8) % 60
		canonical := Minutes(h*60 + m).String()
		twelve, err := To12Hour(canonical)
		if err != nil {
			return false
		}
		back, err := To24Hour(twelve)
		if err != nil {
			return false
		}
		return back == canonical
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLexicon(t *testing.T) {
	lex := NewGermanLexicon()
	if en, ok := lex.ToEnglish("Datenbank"); !ok || en != "database" {
		t.Errorf("ToEnglish(Datenbank) = %q,%v", en, ok)
	}
	if en, ok := lex.ToEnglish("datenbank"); !ok || en != "database" {
		t.Errorf("case-insensitive lookup failed: %q", en)
	}
	if _, ok := lex.ToEnglish("Quatsch"); ok {
		t.Error("unknown word should not translate")
	}
	// The paper's query 5: 'Database' must expand to 'Datenbank' and
	// 'Datenbanksystem'.
	des := lex.ToGerman("database")
	want := map[string]bool{"Datenbank": false, "Datenbanksystem": false}
	for _, de := range des {
		if _, ok := want[de]; ok {
			want[de] = true
		}
	}
	for de, found := range want {
		if !found {
			t.Errorf("ToGerman(database) missing %q (got %v)", de, des)
		}
	}
}

func TestLexiconValueContains(t *testing.T) {
	lex := NewGermanLexicon()
	cases := []struct {
		value, term string
		want        bool
	}{
		{"XML und Datenbanken", "database", true},
		{"Datenbanksysteme", "database", true},
		{"Vernetzte Systeme (3. Semester)", "database", false},
		{"Rechnernetze", "computer networks", true},
		{"Information Retrieval", "information retrieval", true}, // loanword
		{"Künstliche Intelligenz", "database", false},
	}
	for _, c := range cases {
		if got := lex.ValueContains(c.value, c.term); got != c.want {
			t.Errorf("ValueContains(%q, %q) = %v, want %v", c.value, c.term, got, c.want)
		}
	}
}

// TestLexiconValueContainsMatchesToGerman pins ValueContains to its
// definition: a case-insensitive match of the term itself or of any
// rendering ToGerman lists, over every term and rendering the lexicon
// knows, their stems, and values built from them.
func TestLexiconValueContainsMatchesToGerman(t *testing.T) {
	lex := NewGermanLexicon()
	byDefinition := func(value, term string) bool {
		lv := strings.ToLower(value)
		if strings.Contains(lv, strings.ToLower(term)) {
			return true
		}
		for _, de := range lex.ToGerman(term) {
			if strings.Contains(lv, strings.ToLower(de)) {
				return true
			}
		}
		return false
	}
	terms := []string{"", "data", "Database", "computer", "Computer Science", "systems", "xml"}
	values := []string{"", "XML und Datenbanken", "Einführung in Informatik", "Angewandte Rechnernetze"}
	for en, des := range lex.enToDe {
		terms = append(terms, en, strings.ToUpper(en), en[:len(en)/2])
		for _, de := range des {
			values = append(values, de, "Fortgeschrittene "+strings.ToLower(de))
		}
	}
	for _, term := range terms {
		for _, value := range values {
			if got, want := lex.ValueContains(value, term), byDefinition(value, term); got != want {
				t.Errorf("ValueContains(%q, %q) = %v, want %v", value, term, got, want)
			}
		}
	}
}

func TestLexiconTags(t *testing.T) {
	lex := NewGermanLexicon()
	for tag, want := range map[string]string{
		"Titel": "Title", "Dozent": "Lecturer", "Umfang": "Units", "Unknown": "Unknown",
	} {
		if got := lex.TranslateTag(tag); got != want {
			t.Errorf("TranslateTag(%q) = %q, want %q", tag, got, want)
		}
	}
}

func TestUmfang(t *testing.T) {
	u, err := ParseUmfang("2V1U")
	if err != nil {
		t.Fatal(err)
	}
	if u.Lecture != 2 || u.Exercise != 1 {
		t.Errorf("ParseUmfang = %+v", u)
	}
	if u.Units() != 12 {
		t.Errorf("Units = %d, want 12", u.Units())
	}
	if u.CreditHours() != 3 {
		t.Errorf("CreditHours = %d, want 3", u.CreditHours())
	}
	if _, err := ParseUmfang("abc"); err == nil {
		t.Error("expected error")
	}
}

func TestDecomposeBrownTitle(t *testing.T) {
	cases := []struct {
		in   string
		want BrownTitle
	}{
		{
			"Intro. to Software EngineeringK hr. T,Th 2:30-4",
			BrownTitle{Title: "Intro. to Software Engineering", HourLetter: "K", Days: "T,Th", Time: "2:30-4"},
		},
		{
			"Computer NetworksM hr. M 3-5:30",
			BrownTitle{Title: "Computer Networks", HourLetter: "M", Days: "M", Time: "3-5:30"},
		},
		{
			"Intro to Algorithms & Data StructuresD hr. MWF 11-12",
			BrownTitle{Title: "Intro to Algorithms & Data Structures", HourLetter: "D", Days: "MWF", Time: "11-12"},
		},
		{
			"Topics in Computing hrs. arranged",
			BrownTitle{Title: "Topics in Computing"},
		},
		{
			"Just a Title",
			BrownTitle{Title: "Just a Title"},
		},
	}
	for _, c := range cases {
		if got := DecomposeBrownTitle(c.in); got != c.want {
			t.Errorf("DecomposeBrownTitle(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestCanonicalDays(t *testing.T) {
	for in, want := range map[string]string{
		"T,Th": "TTh", "MWF": "MWF", "Mo/Mi/Fr": "MWF", "Di/Do": "TTh", "M": "M", "Mo": "M",
	} {
		if got := CanonicalDays(in); got != want {
			t.Errorf("CanonicalDays(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseUMDSection(t *testing.T) {
	sec, err := ParseUMDSection("0201(13796) Memon, A. (Seats=40, Open=2, Waitlist=0)")
	if err != nil {
		t.Fatal(err)
	}
	if sec.Num != "0201" || sec.ID != "13796" || sec.Teacher != "Memon, A." {
		t.Errorf("section = %+v", sec)
	}
	if !sec.HasSeats || sec.Seats != 40 || sec.Open != 2 || sec.Waitlist != 0 {
		t.Errorf("seats = %+v", sec)
	}
	sec2, err := ParseUMDSection("0101(13795) Singh, H.")
	if err != nil {
		t.Fatal(err)
	}
	if sec2.Teacher != "Singh, H." || sec2.HasSeats {
		t.Errorf("section2 = %+v", sec2)
	}
	if _, err := ParseUMDSection("garbage"); err == nil {
		t.Error("expected error")
	}
}

func TestParseUMDTime(t *testing.T) {
	tm, err := ParseUMDTime("MWF 10:00am KEY0106")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Days != "MWF" || tm.Time != "10:00am" || tm.Room != "KEY0106" {
		t.Errorf("time = %+v", tm)
	}
	if _, err := ParseUMDTime("nope"); err == nil {
		t.Error("expected error")
	}
}

func TestInferEntryLevel(t *testing.T) {
	cases := []struct {
		prereq, comment string
		want            bool
	}{
		{"None", "", true},
		{"none", "", true},
		{"EECS484", "", false},
		{"", "First course in sequence", true},
		{"", "first COURSE in sequence", true},
		{"", "Requires graduate standing", false},
		{"", "", false},
		{"CMSC420", "First course in sequence", false}, // explicit prereq wins
	}
	for _, c := range cases {
		if got := InferEntryLevel(c.prereq, c.comment); got != c.want {
			t.Errorf("InferEntryLevel(%q, %q) = %v, want %v", c.prereq, c.comment, got, c.want)
		}
	}
}

func TestClassifications(t *testing.T) {
	if got := Classifications("JR or SR"); len(got) != 2 || got[0] != "JR" || got[1] != "SR" {
		t.Errorf("Classifications = %v", got)
	}
	if got := Classifications(""); len(got) != 0 {
		t.Errorf("Classifications(empty) = %v", got)
	}
	if !OpenTo("JR or SR", "JR") || OpenTo("SR", "JR") || !OpenTo("", "JR") {
		t.Error("OpenTo logic wrong")
	}
}

func TestNullKinds(t *testing.T) {
	if Present("x").Marker() != "x" {
		t.Error("present marker")
	}
	if Missing().Marker() != "" {
		t.Error("missing marker should be empty")
	}
	if Inapplicable().Marker() != "(not applicable)" {
		t.Error("inapplicable marker")
	}
	if NullMissing.String() != "missing" || NullInapplicable.String() != "inapplicable" {
		t.Error("kind names")
	}
	// The whole point of case 8: the two NULLs must be distinguishable.
	if Missing().Marker() == Inapplicable().Marker() {
		t.Error("dual nulls must render differently")
	}
}

// Property: ParseUMDSection round-trips the components it parsed.
func TestQuickUMDSectionParse(t *testing.T) {
	f := func(num, id uint16, hasSeats bool) bool {
		teacher := "Lastname, X."
		s := ""
		if hasSeats {
			s = " (Seats=40, Open=2, Waitlist=1)"
		}
		in := itoa(int(num)) + "(" + itoa(int(id)) + ") " + teacher + s
		sec, err := ParseUMDSection(in)
		if err != nil {
			return false
		}
		return sec.Teacher == teacher && sec.HasSeats == hasSeats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b strings.Builder
	var digits []byte
	for n > 0 {
		digits = append(digits, byte('0'+n%10))
		n /= 10
	}
	for i := len(digits) - 1; i >= 0; i-- {
		b.WriteByte(digits[i])
	}
	return b.String()
}

func TestFrenchLexicon(t *testing.T) {
	lex := NewFrenchLexicon()
	if en, ok := lex.ToEnglish("Enseignant"); !ok || en != "Lecturer" {
		t.Errorf("ToEnglish(Enseignant) = %q,%v", en, ok)
	}
	if !lex.ValueContains("Bases de données avancées", "database") {
		t.Error("French database title should match")
	}
	if lex.ValueContains("Génie logiciel", "database") {
		t.Error("software engineering should not match database")
	}
	if got := lex.TranslateTag("Intitulé"); got != "Title" {
		t.Errorf("TranslateTag = %q", got)
	}
	// The two lexicons are independent.
	de := NewGermanLexicon()
	if _, ok := de.ToEnglish("Enseignant"); ok {
		t.Error("German lexicon should not know French terms")
	}
}
