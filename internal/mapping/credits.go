package mapping

import (
	"fmt"
	"strconv"
)

// Workload conversions for the complex-mapping heterogeneity (case 4): CMU
// counts workload in "units" (a typical course is 12), US state schools in
// semester credit hours (a typical course is 3-4), and ETH in the Swiss
// "Umfang" notation "2V1U" — two Vorlesung (lecture) plus one Übung
// (exercise) weekly hours. The paper stresses that such mappings are "not
// always computable from first principles"; THALIA's sample solutions fix
// the conventions below, which systems must adopt to score the point.

// Umfang is ETH's parsed workload notation.
type Umfang struct {
	Lecture  int // V: weekly lecture hours
	Exercise int // U: weekly exercise hours
}

// ParseUmfang parses notation like "2V1U": `^\s*(\d+)V(\d+)U\s*$`.
func ParseUmfang(s string) (Umfang, error) {
	i := skipSpace(s, 0)
	vEnd := skipDigits(s, i)
	uEnd := skipDigits(s, vEnd+1)
	if vEnd == i || vEnd == len(s) || s[vEnd] != 'V' ||
		uEnd == vEnd+1 || uEnd == len(s) || s[uEnd] != 'U' || skipSpace(s, uEnd+1) != len(s) {
		return Umfang{}, fmt.Errorf("mapping: unparseable Umfang %q", s)
	}
	v, _ := strconv.Atoi(s[i:vEnd])
	u, _ := strconv.Atoi(s[vEnd+1 : uEnd])
	return Umfang{Lecture: v, Exercise: u}, nil
}

// Units converts the workload to CMU-style units. THALIA's convention: each
// weekly contact hour is worth four units (a 2V1U course ≈ a 12-unit CMU
// course).
func (u Umfang) Units() int { return (u.Lecture + u.Exercise) * 4 }

// CreditHours converts the workload to US semester credit hours: one credit
// hour per weekly contact hour.
func (u Umfang) CreditHours() int { return u.Lecture + u.Exercise }
