package mapping

import (
	"fmt"
	"strconv"
	"strings"
)

// Decompositions for the structural heterogeneities: Brown's composite
// Title/Time column (cases 3 and 12), Maryland's section titles and
// time-with-room values (cases 9 and 10), and Michigan/CMU prerequisite
// inference (case 7).

// BrownTitle is the decomposition of Brown's Title/Time column, e.g.
// "Intro. to Software EngineeringK hr. T,Th 2:30-4".
type BrownTitle struct {
	Title      string
	HourLetter string // Brown's scheduling-block letter, e.g. "K"
	Days       string // source spelling, e.g. "T,Th"
	Time       string // source spelling, e.g. "2:30-4"
}

// DecomposeBrownTitle splits Brown's composite title column. Titles with no
// schedule part ("hrs. arranged" courses) return only the title.
//
// The split is `^(.*?)([A-Z]) hr\. ([A-Za-z,]+) (\d[\d:.\-]*)$`. Its
// schedule part holds exactly three spaces, so it is read from the right:
// the time follows the last space, the days the one before, "hr." the one
// before that, and the hour letter precedes it. The title (. excludes \n)
// is everything left of the letter.
func DecomposeBrownTitle(s string) BrownTitle {
	s = strings.TrimSpace(s)
	if i := strings.Index(s, "hrs. arranged"); i >= 0 {
		return BrownTitle{Title: strings.TrimSpace(s[:i])}
	}
	sp3 := strings.LastIndexByte(s, ' ')
	sp2 := strings.LastIndexByte(s[:max(sp3, 0)], ' ')
	sp1 := strings.LastIndexByte(s[:max(sp2, 0)], ' ')
	if sp1 < 1 || s[sp1:sp2] != " hr." || !isUpper(s[sp1-1]) ||
		!isBrownDays(s[sp2+1:sp3]) || !isBrownTime(s[sp3+1:]) ||
		strings.IndexByte(s[:sp1-1], '\n') >= 0 {
		return BrownTitle{Title: s}
	}
	return BrownTitle{
		Title:      strings.TrimSpace(s[:sp1-1]),
		HourLetter: s[sp1-1 : sp1],
		Days:       s[sp2+1 : sp3],
		Time:       s[sp3+1:],
	}
}

func isUpper(c byte) bool { return 'A' <= c && c <= 'Z' }

func isLetter(c byte) bool { return isUpper(c) || 'a' <= c && c <= 'z' }

// isBrownDays reports whether s matches `[A-Za-z,]+`.
func isBrownDays(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isLetter(s[i]) && s[i] != ',' {
			return false
		}
	}
	return s != ""
}

// isBrownTime reports whether s matches `\d[\d:.\-]*`.
func isBrownTime(s string) bool {
	if s == "" || !isDigit(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if c := s[i]; !isDigit(c) && c != ':' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// CanonicalDays normalizes day spellings ("T,Th", "Mo/Mi/Fr", "Di/Do") to
// the canonical compact form ("TTh", "MWF", "TTh").
func CanonicalDays(s string) string {
	s = strings.TrimSpace(s)
	german := map[string]string{"Mo": "M", "Di": "T", "Mi": "W", "Do": "Th", "Fr": "F"}
	if strings.ContainsAny(s, "/") || looksGermanDays(s) {
		var b strings.Builder
		for _, part := range strings.Split(s, "/") {
			if en, ok := german[strings.TrimSpace(part)]; ok {
				b.WriteString(en)
			} else {
				b.WriteString(strings.TrimSpace(part))
			}
		}
		return b.String()
	}
	return strings.ReplaceAll(s, ",", "")
}

func looksGermanDays(s string) bool {
	switch s {
	case "Mo", "Di", "Mi", "Do", "Fr", "Sa", "So":
		return true
	}
	return false
}

// UMDSection is the decomposition of Maryland's section-title values, e.g.
// "0201(13796) Memon, A. (Seats=40, Open=2, Waitlist=0)".
type UMDSection struct {
	Num      string // "0201"
	ID       string // "13796"
	Teacher  string // "Memon, A."
	Seats    int
	Open     int
	Waitlist int
	HasSeats bool
}

// ParseUMDSection parses a Maryland section title. This is the "extract the
// name part from all of the section titles" work that query 10's challenge
// calls out.
//
// It accepts `^(\d+)\((\d+)\)\s*([^(]*?)\s*(?:\(Seats=(\d+),
// Open=(\d+), Waitlist=(\d+)\))?$`: the teacher runs to the first "(" after
// the ID, and that "(" must open the seat counts that end the value. A seat
// count that overflows int reads as 0, as fmt.Sscanf leaves it.
func ParseUMDSection(s string) (UMDSection, error) {
	t := strings.TrimSpace(s)
	numEnd := skipDigits(t, 0)
	idEnd := skipDigits(t, numEnd+1)
	if numEnd == 0 || numEnd == len(t) || t[numEnd] != '(' ||
		idEnd == numEnd+1 || idEnd == len(t) || t[idEnd] != ')' {
		return UMDSection{}, fmt.Errorf("mapping: unparseable UMD section %q", s)
	}
	sec := UMDSection{Num: t[:numEnd], ID: t[numEnd+1 : idEnd]}
	rest := t[idEnd+1:]
	teacher, seats, found := strings.Cut(rest, "(")
	if found {
		var ok bool
		if sec.Seats, seats, ok = seatCount(seats, "Seats=", ", "); ok {
			if sec.Open, seats, ok = seatCount(seats, "Open=", ", "); ok {
				sec.Waitlist, seats, ok = seatCount(seats, "Waitlist=", ")")
			}
		}
		if !ok || seats != "" {
			return UMDSection{}, fmt.Errorf("mapping: unparseable UMD section %q", s)
		}
		sec.HasSeats = true
	}
	sec.Teacher = strings.TrimSpace(teacher)
	return sec, nil
}

// seatCount reads `label(\d+)end` from the start of s and returns the
// number, 0 if it overflows int, and what follows end.
func seatCount(s, label, end string) (n int, rest string, ok bool) {
	if !strings.HasPrefix(s, label) {
		return 0, "", false
	}
	s = s[len(label):]
	i := skipDigits(s, 0)
	if i == 0 || !strings.HasPrefix(s[i:], end) {
		return 0, "", false
	}
	n, err := strconv.Atoi(s[:i])
	if err != nil {
		n = 0
	}
	return n, s[i+len(end):], true
}

// UMDTime is the decomposition of Maryland's Time values, which carry days,
// meeting time and room in one string: "MWF 10:00am KEY0106" (case 9).
type UMDTime struct {
	Days string
	Time string
	Room string
}

// ParseUMDTime splits a Maryland Time value into days, time and room: it
// accepts `^([A-Za-z]+)\s+([\d:apm]+)\s+(\S+)$`.
func ParseUMDTime(s string) (UMDTime, error) {
	t := strings.TrimSpace(s)
	daysEnd := 0
	for daysEnd < len(t) && isLetter(t[daysEnd]) {
		daysEnd++
	}
	timeAt := skipSpace(t, daysEnd)
	timeEnd := timeAt
	for timeEnd < len(t) && (isDigit(t[timeEnd]) || strings.IndexByte(":apm", t[timeEnd]) >= 0) {
		timeEnd++
	}
	roomAt := skipSpace(t, timeEnd)
	if daysEnd == 0 || timeAt == daysEnd || timeEnd == timeAt || roomAt == timeEnd ||
		roomAt == len(t) || strings.ContainsAny(t[roomAt:], " \t\n\f\r") {
		return UMDTime{}, fmt.Errorf("mapping: unparseable UMD time %q", s)
	}
	return UMDTime{Days: t[:daysEnd], Time: t[timeAt:timeEnd], Room: t[roomAt:]}, nil
}

// entryLevelMarkers are comment phrasings that imply a course has no
// prerequisite — the virtual-column inference of case 7.
var entryLevelMarkers = []string{
	"first course in sequence",
	"no prerequisite",
	"no prior experience",
	"open to all students",
	"entry-level",
	"introductory course",
}

// InferEntryLevel decides whether a course is entry-level from explicit
// prerequisite information and/or a free-text comment. An explicit
// prerequisite value wins; otherwise the comment is scanned for the
// conventional phrasings.
func InferEntryLevel(prereq, comment string) bool {
	switch strings.ToLower(strings.TrimSpace(prereq)) {
	case "none", "keine":
		return true
	case "":
		// fall through to the comment
	default:
		return false
	}
	lc := strings.ToLower(comment)
	for _, marker := range entryLevelMarkers {
		if strings.Contains(lc, marker) {
			return true
		}
	}
	return false
}

// Classifications extracts the US student-classification codes from a
// restrictions value like "JR or SR": the matches of
// `\b(FR|SO|JR|SR|GR)\b`, in order. The concept does not exist at European
// universities (case 8) — callers must distinguish an empty result on a US
// source (no restriction) from the attribute being inapplicable.
func Classifications(restrictions string) []string {
	s := restrictions
	var out []string
	for i := 0; i+2 <= len(s); i++ {
		switch s[i : i+2] {
		case "FR", "SO", "JR", "SR", "GR":
			if (i == 0 || !isWordByte(s[i-1])) && (i+2 == len(s) || !isWordByte(s[i+2])) {
				out = append(out, s[i:i+2])
			}
		}
	}
	return out
}

// isWordByte reports whether c is an ASCII word character, the bytes \b
// separates from the rest.
func isWordByte(c byte) bool { return isLetter(c) || isDigit(c) || c == '_' }

// OpenTo reports whether a restrictions value admits the given
// classification code; an unrestricted course admits everyone.
func OpenTo(restrictions, code string) bool {
	classes := Classifications(restrictions)
	if len(classes) == 0 {
		return true
	}
	for _, c := range classes {
		if c == code {
			return true
		}
	}
	return false
}
