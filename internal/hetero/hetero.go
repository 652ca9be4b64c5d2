// Package hetero encodes THALIA's systematic classification of syntactic
// and semantic heterogeneities (Section 3 of the paper): twelve cases in
// three groups — attribute heterogeneities, missing data, and structural
// heterogeneities — each of which anchors one benchmark query.
package hetero

import "fmt"

// Case identifies one of the twelve heterogeneity cases. Values match the
// paper's query numbering: Case(1) is Synonyms, Case(12) is Attribute
// Composition.
type Case int

// The twelve heterogeneity cases, in the paper's order of increasing
// resolution effort within each group.
const (
	// Synonyms: attributes with different names conveying the same meaning
	// ("instructor" vs "lecturer").
	Synonyms Case = iota + 1
	// SimpleMapping: related attributes differing by a mathematical
	// transformation (24-hour vs 12-hour clock).
	SimpleMapping
	// UnionTypes: the same information in different data types (plain
	// string vs string-plus-hyperlink).
	UnionTypes
	// ComplexMappings: related attributes differing by a transformation not
	// always computable from first principles (numeric units vs textual
	// workload description).
	ComplexMappings
	// LanguageExpression: names or values expressed in different natural
	// languages ("database" vs "Datenbank").
	LanguageExpression
	// Nulls: the attribute value does not exist (missing textbook).
	Nulls
	// VirtualColumns: information explicit in one schema exists only
	// implicitly in another and must be inferred (prerequisites in a
	// comment).
	VirtualColumns
	// SemanticIncompatibility: a real-world concept modeled in one schema
	// does not exist at all in the other (US student classification).
	SemanticIncompatibility
	// SameAttributeDifferentStructure: the same attribute appears at
	// different positions (Room on Course vs Room under Section).
	SameAttributeDifferentStructure
	// HandlingSets: a set as one set-valued attribute vs a hierarchy of
	// single-valued attributes (multiple instructors).
	HandlingSets
	// AttributeNameDoesNotDefineSemantics: the attribute name does not
	// describe its value ("Fall 2003" columns holding instructor names).
	AttributeNameDoesNotDefineSemantics
	// AttributeComposition: one composite attribute vs a set of attributes
	// (title+day+time concatenated in one column).
	AttributeComposition
)

// Group is one of the paper's three heterogeneity groups.
type Group int

// The three groups of Section 3.1.
const (
	// GroupAttribute covers cases 1-5.
	GroupAttribute Group = iota
	// GroupMissingData covers cases 6-8.
	GroupMissingData
	// GroupStructural covers cases 9-12.
	GroupStructural
)

// String names the group as in the paper.
func (g Group) String() string {
	switch g {
	case GroupAttribute:
		return "Attribute Heterogeneities"
	case GroupMissingData:
		return "Missing Data"
	case GroupStructural:
		return "Structural Heterogeneities"
	default:
		return fmt.Sprintf("Group(%d)", int(g))
	}
}

// Info carries the descriptive metadata for one case.
type Info struct {
	Case        Case
	Name        string
	Group       Group
	Description string
	// Example is the paper's illustrating example.
	Example string
}

// String returns "case 3 (Union Types)".
func (c Case) String() string {
	if c < Synonyms || c > AttributeComposition {
		return fmt.Sprintf("case %d (unknown)", int(c))
	}
	return fmt.Sprintf("case %d (%s)", int(c), infos[c-1].Name)
}

// Name returns the short name of the case.
func (c Case) Name() string {
	if c < Synonyms || c > AttributeComposition {
		return "unknown"
	}
	return infos[c-1].Name
}

// Describe returns the full metadata for the case.
func Describe(c Case) (Info, error) {
	if c < Synonyms || c > AttributeComposition {
		return Info{}, fmt.Errorf("hetero: no case %d", int(c))
	}
	return infos[c-1], nil
}

// AllCases returns the twelve cases in benchmark order.
func AllCases() []Case {
	out := make([]Case, 12)
	for i := range out {
		out[i] = Case(i + 1)
	}
	return out
}

var infos = [12]Info{
	{Synonyms, "Synonyms", GroupAttribute,
		"Attributes with different names that convey the same meaning.",
		`"instructor" vs. "lecturer"`},
	{SimpleMapping, "Simple Mapping", GroupAttribute,
		"Related attributes differ by a mathematical transformation of their values.",
		"time values on a 24-hour vs. 12-hour clock"},
	{UnionTypes, "Union Types", GroupAttribute,
		"Attributes in different schemas use different data types to represent the same information.",
		"course title as a plain string vs. string plus link (URL)"},
	{ComplexMappings, "Complex Mappings", GroupAttribute,
		"Related attributes differ by a complex transformation of their values, not always computable from first principles.",
		`numeric "Units" vs. textual workload description "2V1U"`},
	{LanguageExpression, "Language Expression", GroupAttribute,
		"Names or values of identical attributes are expressed in different languages.",
		`"database" vs. "Datenbank"`},
	{Nulls, "Nulls", GroupMissingData,
		"The attribute (value) does not exist in one of the schemas.",
		"courses without a textbook field or with an empty textbook value"},
	{VirtualColumns, "Virtual Columns", GroupMissingData,
		"Information explicit in one schema is only implicit in the other and must be inferred.",
		"prerequisites as an attribute vs. buried in a free-text comment"},
	{SemanticIncompatibility, "Semantic Incompatibility", GroupMissingData,
		"A real-world concept modeled by an attribute does not exist in the other schema.",
		"US student classification (freshman, sophomore, ...) at European universities"},
	{SameAttributeDifferentStructure, "Same Attribute in Different Structure", GroupStructural,
		"The same or related attribute is located in different positions in different schemas.",
		"Room as an attribute of Course vs. of Section under Course"},
	{HandlingSets, "Handling Sets", GroupStructural,
		"A set represented as one set-valued attribute vs. a hierarchy of single-valued attributes.",
		"one multi-instructor field vs. per-section instructor fields"},
	{AttributeNameDoesNotDefineSemantics, "Attribute Name Does Not Define Semantics", GroupStructural,
		"The attribute name does not adequately describe the meaning of the stored value.",
		`columns labeled "Fall 2003" and "Winter 2004" holding instructor names`},
	{AttributeComposition, "Attribute Composition", GroupStructural,
		"The same information represented by a single composite attribute vs. a set of attributes.",
		"title, day and time concatenated into one column vs. separate columns"},
}
