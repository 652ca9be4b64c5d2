package analysis

// CheckDoc names one check and its one-line contract; the CLI's -list
// output and the SARIF rule table are both rendered from these.
type CheckDoc struct {
	Name string
	Doc  string
}

// QueryCheckDocs lists the query/schema head's checks. The Go head's list
// comes from the analyzers themselves (GoAnalyzer.Name/Doc).
func QueryCheckDocs() []CheckDoc {
	return []CheckDoc{
		{"parse", "every benchmark query text parses"},
		{"dead-path", "every path step resolves against the catalog schemas"},
		{"unbound-var", "every $variable is bound by an enclosing for/let"},
		{"unknown-func", "every called function is a builtin"},
		{"type-unify", "comparison operands unify under the schema's types"},
		{"complexity", "the reference mediator's charged complexities match the automatic estimate (or are waived)"},
		{"mapping", "mediation tables resolve against source schemas; global queries are fully mapped"},
		{"catalog", "every source materializes, validates, and round-trips its schema"},
	}
}

// AllCheckDocs returns every check thalia-vet can report, query head first,
// then the given Go analyzers in order.
func AllCheckDocs(analyzers []*GoAnalyzer) []CheckDoc {
	out := QueryCheckDocs()
	for _, a := range analyzers {
		out = append(out, CheckDoc{a.Name, a.Doc})
	}
	return out
}
