package mapping

import (
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The regular expressions the scanners replaced, kept as their reference.
var (
	oracleClock    = regexp.MustCompile(`^\s*(\d{1,2})(?::(\d{2}))?\s*(am|pm|AM|PM)?\s*$`)
	oracleRangeSep = regexp.MustCompile(`\s*(?:-|–|—|to)\s*`)
	oracleBrown    = regexp.MustCompile(`^(.*?)([A-Z]) hr\. ([A-Za-z,]+) (\d[\d:.\-]*)$`)
	oracleSection  = regexp.MustCompile(`^(\d+)\((\d+)\)\s*([^(]*?)\s*(?:\(Seats=(\d+), Open=(\d+), Waitlist=(\d+)\))?$`)
	oracleUMDTime  = regexp.MustCompile(`^([A-Za-z]+)\s+([\d:apm]+)\s+(\S+)$`)
	oracleUmfang   = regexp.MustCompile(`^\s*(\d+)V(\d+)U\s*$`)
	oracleClass    = regexp.MustCompile(`\b(FR|SO|JR|SR|GR)\b`)
)

func parseClockOracle(s string) (Minutes, error) {
	m := oracleClock.FindStringSubmatch(s)
	if m == nil {
		return 0, fmt.Errorf("mapping: unparseable clock value %q", s)
	}
	h, err := strconv.Atoi(m[1])
	if err != nil || h > 23 || m[3] != "" && (h < 1 || h > 12) {
		return 0, fmt.Errorf("mapping: bad hour in %q", s)
	}
	minute := 0
	if m[2] != "" {
		minute, err = strconv.Atoi(m[2])
		if err != nil || minute > 59 {
			return 0, fmt.Errorf("mapping: bad minute in %q", s)
		}
	}
	switch strings.ToLower(m[3]) {
	case "am":
		if h == 12 {
			h = 0
		}
	case "pm":
		if h != 12 {
			h += 12
		}
	default:
		if h <= 12 && h != 0 && h < 8 {
			h += 12
		}
	}
	return Minutes(h*60 + minute), nil
}

func parseClockRangeOracle(s string) (start, end Minutes, err error) {
	parts := oracleRangeSep.Split(strings.TrimSpace(s), 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("mapping: not a time range: %q", s)
	}
	start, err = parseClockOracle(parts[0])
	if err != nil {
		return 0, 0, err
	}
	end, err = parseClockOracle(parts[1])
	if err != nil {
		return 0, 0, err
	}
	if end < start {
		end += 12 * 60
		if end >= 24*60 {
			return 0, 0, fmt.Errorf("mapping: inverted time range %q", s)
		}
	}
	return start, end, nil
}

func rangeTo24Oracle(s string) (string, error) {
	start, end, err := parseClockRangeOracle(s)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%02d:%02d-%02d:%02d", int(start)/60, int(start)%60, int(end)/60, int(end)%60), nil
}

func decomposeBrownTitleOracle(s string) BrownTitle {
	s = strings.TrimSpace(s)
	if i := strings.Index(s, "hrs. arranged"); i >= 0 {
		return BrownTitle{Title: strings.TrimSpace(s[:i])}
	}
	m := oracleBrown.FindStringSubmatch(s)
	if m == nil {
		return BrownTitle{Title: s}
	}
	return BrownTitle{Title: strings.TrimSpace(m[1]), HourLetter: m[2], Days: m[3], Time: m[4]}
}

func parseUMDSectionOracle(s string) (UMDSection, error) {
	m := oracleSection.FindStringSubmatch(strings.TrimSpace(s))
	if m == nil {
		return UMDSection{}, fmt.Errorf("mapping: unparseable UMD section %q", s)
	}
	sec := UMDSection{Num: m[1], ID: m[2], Teacher: strings.TrimSpace(m[3])}
	if m[4] != "" {
		sec.HasSeats = true
		fmt.Sscanf(m[4], "%d", &sec.Seats)
		fmt.Sscanf(m[5], "%d", &sec.Open)
		fmt.Sscanf(m[6], "%d", &sec.Waitlist)
	}
	return sec, nil
}

func parseUMDTimeOracle(s string) (UMDTime, error) {
	m := oracleUMDTime.FindStringSubmatch(strings.TrimSpace(s))
	if m == nil {
		return UMDTime{}, fmt.Errorf("mapping: unparseable UMD time %q", s)
	}
	return UMDTime{Days: m[1], Time: m[2], Room: m[3]}, nil
}

func parseUmfangOracle(s string) (Umfang, error) {
	m := oracleUmfang.FindStringSubmatch(s)
	if m == nil {
		return Umfang{}, fmt.Errorf("mapping: unparseable Umfang %q", s)
	}
	v, _ := strconv.Atoi(m[1])
	u, _ := strconv.Atoi(m[2])
	return Umfang{Lecture: v, Exercise: u}, nil
}

// sameErr reports whether two errors are both nil or carry the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// checkScanners runs every scanner and its regular-expression reference on
// s and reports each difference in result or error text.
func checkScanners(t *testing.T, s string) {
	t.Helper()
	check := func(name string, got, want any, err, wantErr error) {
		t.Helper()
		if !reflect.DeepEqual(got, want) || !sameErr(err, wantErr) {
			t.Errorf("%s(%q) = %+v, %v; want %+v, %v", name, s, got, err, want, wantErr)
		}
	}
	clock, err := ParseClock(s)
	wantClock, wantErr := parseClockOracle(s)
	check("ParseClock", clock, wantClock, err, wantErr)

	start, end, err := ParseClockRange(s)
	wantStart, wantEnd, wantErr := parseClockRangeOracle(s)
	check("ParseClockRange", [2]Minutes{start, end}, [2]Minutes{wantStart, wantEnd}, err, wantErr)

	r24, err := RangeTo24(s)
	wantR24, wantErr := rangeTo24Oracle(s)
	check("RangeTo24", r24, wantR24, err, wantErr)

	check("DecomposeBrownTitle", DecomposeBrownTitle(s), decomposeBrownTitleOracle(s), nil, nil)

	sec, err := ParseUMDSection(s)
	wantSec, wantErr := parseUMDSectionOracle(s)
	check("ParseUMDSection", sec, wantSec, err, wantErr)

	tm, err := ParseUMDTime(s)
	wantTm, wantErr := parseUMDTimeOracle(s)
	check("ParseUMDTime", tm, wantTm, err, wantErr)

	u, err := ParseUmfang(s)
	wantU, wantErr := parseUmfangOracle(s)
	check("ParseUmfang", u, wantU, err, wantErr)

	check("Classifications", Classifications(s), oracleClass.FindAllString(s, -1), nil, nil)
}

// FuzzMappingScanners checks every mapping scanner against the regular
// expression it replaced, on arbitrary input, invalid UTF-8 included: equal
// results and equal error text. Its seeds, in
// testdata/fuzz/FuzzMappingScanners, hold \v and \f around clocks, en and
// em dash separators, "to" inside a word, a dash after an invalid UTF-8
// lead byte, "1:234", "pM", am/pm hours above 12, Brown titles with \n or
// two " hr. " groups, seat and Umfang counts that overflow int, and a
// Maryland teacher name holding "(".
func FuzzMappingScanners(f *testing.F) {
	f.Fuzz(checkScanners)
}

// TestScannersMatchOracleOnTestbedSpellings runs the differential check on
// the spellings the testbed and the other tests use.
func TestScannersMatchOracleOnTestbedSpellings(t *testing.T) {
	for _, s := range []string{
		"16:00", "1:30pm", "12:00am", "4", "13:30pm", "0am", "1:30 - 2:50", "3-5:30",
		"10:30 to 11:50", "11pm-13pm", "9:00am–10:15am", "2:00 — 3:30",
		"Intro. to Software EngineeringK hr. T,Th 2:30-4", "Topics in Computing hrs. arranged",
		"0201(13796) Memon, A. (Seats=40, Open=2, Waitlist=0)", "0101(13795) Singh, H.",
		"MWF 10:00am KEY0106", "TuTh 2:00pm CSI1115", " 2V1U ", "JR or SR", "FR,SO_GR SR",
	} {
		checkScanners(t, s)
	}
}

// TestMinutesString pins the fmt-free rendering to "%02d:%02d" of the
// hours and minutes, negative and out-of-day values included.
func TestMinutesString(t *testing.T) {
	for _, m := range []Minutes{0, 5, 59, 60, 599, 600, 810, 1439, 1440, 5999, 6000, 99999, -1, -59, -60, -61, -600, -6001} {
		if got, want := m.String(), fmt.Sprintf("%02d:%02d", int(m)/60, int(m)%60); got != want {
			t.Errorf("Minutes(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}
