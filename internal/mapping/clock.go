// Package mapping is the local-to-global transformation library that
// integration systems built on THALIA use to resolve the twelve
// heterogeneities: clock conversions (case 2), union-type flattening
// (case 3), workload/credit conversions (case 4), a German-English lexicon
// (case 5), dual NULL semantics (cases 6 and 8), virtual-column inference
// (case 7), structural relocation and set flattening (cases 9 and 10), and
// composite-attribute decomposition (cases 11 and 12).
//
// Each transformation carries a declared complexity (low/medium/high) so
// that the benchmark's scoring function can charge systems for the external
// functions they invoke.
//
// The parsers are byte scanners. Each accepts exactly the language of the
// regular expression its documentation gives, in RE2's ASCII reading: \s is
// space, \t, \n, \f and \r (not \v), \d is 0-9, and \b separates ASCII word
// bytes from the rest. The fuzz tests hold them to those expressions.
package mapping

import (
	"fmt"
	"strconv"
	"strings"
)

// Minutes is a time of day in minutes since midnight.
type Minutes int

// String renders the canonical 24-hour form, e.g. "13:30".
func (m Minutes) String() string {
	var buf [8]byte
	return string(m.appendTo(buf[:0]))
}

// appendTo appends m as "%02d:%02d" of its hours and minutes.
func (m Minutes) appendTo(b []byte) []byte {
	b = append2d(b, int(m)/60)
	b = append(b, ':')
	return append2d(b, int(m)%60)
}

// append2d appends n as "%02d" does: zero-padded to two digits, with a
// negative number's sign counting toward the width.
func append2d(b []byte, n int) []byte {
	if n >= 0 && n < 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(n), 10)
}

// isSpace reports whether c is in RE2's \s class.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipSpace returns the index of the first non-\s byte of s at or after i.
func skipSpace(s string, i int) int {
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	return i
}

// skipDigits returns the index of the first non-digit byte of s at or
// after i.
func skipDigits(s string, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

// ParseClock parses one clock value in any of the testbed's spellings:
// "16:00" (24-hour), "1:30pm" (12-hour), "1:30" or "4" (bare 12-hour).
// It accepts `^\s*(\d{1,2})(?::(\d{2}))?\s*(am|pm|AM|PM)?\s*$`; an hour
// with an am/pm marker must be 1-12. Bare values with no am/pm marker are
// disambiguated with the academic-day heuristic: hours 8-11 are morning,
// hours 1-7 and 12 are afternoon — courses do not meet before 08:00 or
// after 19:59.
func ParseClock(s string) (Minutes, error) {
	i := skipSpace(s, 0)
	hourEnd := skipDigits(s, i)
	hour := s[i:hourEnd]
	var minute, meridiem string
	i = hourEnd
	if i+2 < len(s) && s[i] == ':' && isDigit(s[i+1]) && isDigit(s[i+2]) {
		minute = s[i+1 : i+3]
		i += 3
	}
	i = skipSpace(s, i)
	if i+2 <= len(s) {
		switch s[i : i+2] {
		case "am", "pm", "AM", "PM":
			meridiem = s[i : i+2]
			i += 2
		}
	}
	if len(hour) < 1 || len(hour) > 2 || skipSpace(s, i) != len(s) {
		return 0, fmt.Errorf("mapping: unparseable clock value %q", s)
	}
	h, _ := strconv.Atoi(hour)
	if h > 23 || meridiem != "" && (h < 1 || h > 12) {
		return 0, fmt.Errorf("mapping: bad hour in %q", s)
	}
	m := 0
	if minute != "" {
		m, _ = strconv.Atoi(minute)
		if m > 59 {
			return 0, fmt.Errorf("mapping: bad minute in %q", s)
		}
	}
	switch meridiem {
	case "am", "AM":
		if h == 12 {
			h = 0
		}
	case "pm", "PM":
		if h != 12 {
			h += 12
		}
	default:
		// Bare value: 24-hour if the hour is unambiguous (0 or 13-23),
		// otherwise the academic-day heuristic; 1-7 means afternoon.
		if h >= 1 && h < 8 {
			h += 12
		}
	}
	return Minutes(h*60 + m), nil
}

// To24Hour converts any testbed clock spelling to canonical "HH:MM".
// This is the simple-mapping transformation of benchmark query 2.
func To24Hour(s string) (string, error) {
	m, err := ParseClock(s)
	if err != nil {
		return "", err
	}
	return m.String(), nil
}

// To12Hour converts any testbed clock spelling to "h:mmam"/"h:mmpm".
func To12Hour(s string) (string, error) {
	m, err := ParseClock(s)
	if err != nil {
		return "", err
	}
	h, mm := int(m)/60, int(m)%60
	suffix := "am"
	if h >= 12 {
		suffix = "pm"
	}
	h12 := h % 12
	if h12 == 0 {
		h12 = 12
	}
	return fmt.Sprintf("%d:%02d%s", h12, mm, suffix), nil
}

// splitRange splits s around its leftmost match of
// `\s*(?:-|–|—|to)\s*`. No separator byte sequence occurs inside another
// UTF-8 sequence, so a byte search finds what a rune search finds.
func splitRange(s string) (start, end string, ok bool) {
	for i := 0; i < len(s); i++ {
		for _, sep := range [...]string{"-", "–", "—", "to"} {
			if !strings.HasPrefix(s[i:], sep) {
				continue
			}
			a := i
			for a > 0 && isSpace(s[a-1]) {
				a--
			}
			return s[:a], s[skipSpace(s, i+len(sep)):], true
		}
	}
	return "", "", false
}

// ParseClockRange parses a meeting-time range like "1:30 - 2:50",
// "16:00-17:15" or "3-5:30" into start and end minutes. When the end's
// bare hour reads as earlier than the start (Brown's "3-5:30"), it is
// shifted into the same afternoon.
func ParseClockRange(s string) (start, end Minutes, err error) {
	from, to, ok := splitRange(strings.TrimSpace(s))
	if !ok {
		return 0, 0, fmt.Errorf("mapping: not a time range: %q", s)
	}
	start, err = ParseClock(from)
	if err != nil {
		return 0, 0, err
	}
	end, err = ParseClock(to)
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

// RangeTo24 converts any testbed range spelling to "HH:MM-HH:MM".
func RangeTo24(s string) (string, error) {
	start, end, err := ParseClockRange(s)
	if err != nil {
		return "", err
	}
	var buf [16]byte
	b := start.appendTo(buf[:0])
	b = append(b, '-')
	return string(end.appendTo(b)), nil
}
