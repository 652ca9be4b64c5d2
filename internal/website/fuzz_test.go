package website

import (
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// FuzzRunSpec holds parseRunSpec to its contract on any POST /runs body
// the site's form parser accepts, since the body is outside input: it
// never panics, and a spec it accepts names one to four distinct systems,
// a concurrency of 0-64, and chaos exactly when the chaos field is set,
// with that field's seed.
func FuzzRunSpec(f *testing.F) {
	// The bodies TestRunsBadRequests posts, then accepted ones.
	for _, body := range []url.Values{
		{"system": {"sirius"}},
		{"system": {"cohera", "iwiz", "cohera"}},
		{"concurrency": {"-3"}},
		{"system": {"cohera"}, "pad": {strings.Repeat("x", 100<<10)}},
		{"system": {"iwiz"}, "pad": {strings.Repeat("x", 100<<10)}},
		{"system": {"cohera"}},
		{},
		{"system": {"mediator", "declarative"}, "concurrency": {"64"}, "chaos": {"-7"}},
	} {
		f.Add(body.Encode())
	}
	f.Fuzz(func(t *testing.T, body string) {
		form, err := url.ParseQuery(body)
		if err != nil {
			return // the site answers 400 before parsing a spec
		}
		spec, err := parseRunSpec(form)
		if err != nil {
			return
		}
		if n := len(spec.systems); n < 1 || n > 4 {
			t.Fatalf("%q: accepted %d systems, want 1-4", body, n)
		}
		names := map[string]bool{}
		for _, sys := range spec.systems {
			if names[sys.Name()] {
				t.Fatalf("%q: accepted system %s twice", body, sys.Name())
			}
			names[sys.Name()] = true
		}
		if spec.concurrency < 0 || spec.concurrency > 64 {
			t.Fatalf("%q: accepted concurrency %d, want 0-64", body, spec.concurrency)
		}
		chaos := form.Get("chaos")
		if spec.chaos != (chaos != "") {
			t.Fatalf("%q: chaos = %v with chaos field %q", body, spec.chaos, chaos)
		}
		if seed, _ := strconv.ParseInt(chaos, 10, 64); spec.chaos && spec.seed != seed {
			t.Fatalf("%q: seed %d, chaos field %q", body, spec.seed, chaos)
		}
	})
}
