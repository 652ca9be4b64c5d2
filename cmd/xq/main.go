// Command xq runs the XQuery-subset processor standalone. Queries may
// reference XML files on disk through doc("path.xml"); with -testbed,
// doc() URIs resolve against the built-in THALIA testbed instead
// (doc("cmu.xml") is CMU's extracted catalog). Queries run as compiled
// plans.
//
// Usage:
//
//	xq 'FOR $b in doc("data.xml")/root/item RETURN $b'
//	xq -testbed 'FOR $b in doc("cmu.xml")/cmu/Course RETURN $b/Lecturer'
//	xq -explain -f query.xq
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"thalia"
	"thalia/internal/explain"
	"thalia/internal/xmldom"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
)

func main() {
	file := flag.String("f", "", "read the query from a file")
	testbed := flag.Bool("testbed", false, "resolve doc() URIs against the built-in testbed")
	xmlOut := flag.Bool("xml", false, "print element results as XML instead of text values")
	explainTrace := flag.Bool("explain", false, "print an operator trace of the evaluation to stderr")
	flag.Parse()

	if err := run(*file, *testbed, *xmlOut, *explainTrace, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "xq:", err)
		os.Exit(1)
	}
}

func run(file string, testbed, xmlOut, explainTrace bool, args []string) error {
	var query string
	switch {
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		query = string(data)
	case len(args) > 0:
		query = strings.Join(args, " ")
	default:
		return fmt.Errorf("usage: xq [-testbed] [-xml] [-explain] '<query>' (or -f query.xq)")
	}

	var ctx *xquery.Context
	if testbed {
		ctx = thalia.QueryContext()
	} else {
		ctx = xquery.NewContext(func(uri string) (*xmldom.Document, error) {
			f, err := os.Open(uri)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return xmldom.Parse(f)
		})
	}
	var rec *explain.Recorder
	if explainTrace {
		rec = explain.NewRecorder()
		ctx.Explain = rec
	}
	seq, err := plan.EvalQuery(query, ctx)
	if rec != nil {
		fmt.Fprint(os.Stderr, rec.Trace().Text())
	}
	if err != nil {
		var pe *xquery.ParseError
		if errors.As(err, &pe) && file != "" {
			return fmt.Errorf("%s:%d:%d: %s", file, pe.Line, pe.Column, pe.Msg)
		}
		return err
	}
	for _, item := range seq {
		if el, ok := item.(*xmldom.Element); ok && xmlOut {
			fmt.Println(el.String())
			continue
		}
		fmt.Println(xquery.ItemString(item))
	}
	return nil
}
