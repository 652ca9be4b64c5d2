package schemamatch

import (
	"testing"

	"thalia/internal/xmldom"
)

// FuzzDetectDocs holds the detector to its contract on two arbitrary
// documents: it never panics, it reports each case at most once in case
// order, and each document compared with an independently parsed copy of
// itself reports nothing.
func FuzzDetectDocs(f *testing.F) {
	f.Add("<r/>", "<r><c/></r>")
	f.Add("<r><c><t a='1'>x</t><t>y</t></c></r>", "<r><c><t><a>x</a></t></c><d>1:30 - 2:50</d></r>")
	f.Fuzz(func(t *testing.T, refXML, chalXML string) {
		ref, err := xmldom.ParseString(refXML)
		if err != nil {
			return
		}
		chal, err := xmldom.ParseString(chalXML)
		if err != nil {
			return
		}
		dets := DetectDocs(ref, chal)
		for i, d := range dets {
			if d.Evidence == "" {
				t.Errorf("%v without evidence", d.Case)
			}
			if i > 0 && dets[i-1].Case >= d.Case {
				t.Fatalf("detections not sorted and unique by case: %v", dets)
			}
		}
		for _, s := range []string{refXML, chalXML} {
			a, _ := xmldom.ParseString(s)
			b, _ := xmldom.ParseString(s)
			if self := DetectDocs(a, b); len(self) != 0 {
				t.Fatalf("document against itself: %v\n%s", self, s)
			}
		}
	})
}
