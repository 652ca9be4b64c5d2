package plan_test

import (
	"errors"
	"testing"

	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
)

// FuzzCompileEval is the plan ≡ interpreter differential fuzzer: any input
// xquery.Parse accepts must compile, and evaluating the plan must produce
// exactly the interpreter's outcome — the same rendered Sequence on
// success, or an error of the same class (*xquery.DynamicError vs not) with
// the same message on failure. Neither engine may panic.
func FuzzCompileEval(f *testing.F) {
	seeds := []string{
		`FOR $c in doc("a.xml")/catalog/course WHERE $c/instructor = "Mark" RETURN $c/title`,
		`FOR $t in doc("a.xml")//title ORDER BY $t DESCENDING RETURN <r k="{$t}">{$t}</r>`,
		`FOR $c in doc("a.xml")/catalog/course[2] LET $t := $c/title RETURN concat($t, "!")`,
		`FOR $c in doc("a.xml")/catalog/course WHERE $c/@credits + 1 > 4 RETURN $c/@id`,
		`FOR $x in (1, 2) FOR $x in ($x, 10) RETURN $x`,
		`some $t in doc("a.xml")//title satisfies contains($t, "Lab")`,
		`every $t in doc("a.xml")//title satisfies $t != ""`,
		`if ($g = "second") then $n else -$n`,
		`(1, "two", 7 div 2, 7 mod 2, tag("x"))`,
		`count(doc("a.xml")//course[title = "Datenbanken"])`,
		`substring("abcdef", 2, 3)`,
		`$missing`,
		`1 div 0`,
		`doc("nope.xml")`,
		`substring()`,
		`string-join(doc("a.xml")//instructor, "; ")`,
	}
	for _, s := range append(seeds, windowQueries...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		expr, err := xquery.Parse(src)
		if err != nil {
			return // not this fuzzer's concern; FuzzParse covers the parser
		}
		p, err := plan.Compile(expr)
		if err != nil {
			t.Fatalf("parse-accepted input failed to compile: %q: %v", src, err)
		}
		want, werr := xquery.Eval(expr, newTestContext(t))
		got, gerr := p.Eval(newTestContext(t))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error divergence on %q:\ninterpreter: %v\nplan:        %v", src, werr, gerr)
		}
		if werr != nil {
			var wd, gd *xquery.DynamicError
			if errors.As(werr, &wd) != errors.As(gerr, &gd) {
				t.Fatalf("error class divergence on %q:\ninterpreter: %T %v\nplan:        %T %v",
					src, werr, werr, gerr, gerr)
			}
			if werr.Error() != gerr.Error() {
				t.Fatalf("error message divergence on %q:\ninterpreter: %v\nplan:        %v", src, werr, gerr)
			}
			return
		}
		w, g := renderSequence(want), renderSequence(got)
		if w != g {
			t.Fatalf("result divergence on %q:\ninterpreter:\n%s\nplan:\n%s", src, w, g)
		}
	})
}
