package hetero

import (
	"strings"
	"testing"
)

func TestAllCases(t *testing.T) {
	cases := AllCases()
	if len(cases) != 12 {
		t.Fatalf("AllCases = %d, want 12", len(cases))
	}
	for i, c := range cases {
		if int(c) != i+1 {
			t.Errorf("case %d has value %d", i, int(c))
		}
	}
}

func TestGrouping(t *testing.T) {
	wantGroups := map[Case]Group{
		Synonyms:                            GroupAttribute,
		SimpleMapping:                       GroupAttribute,
		UnionTypes:                          GroupAttribute,
		ComplexMappings:                     GroupAttribute,
		LanguageExpression:                  GroupAttribute,
		Nulls:                               GroupMissingData,
		VirtualColumns:                      GroupMissingData,
		SemanticIncompatibility:             GroupMissingData,
		SameAttributeDifferentStructure:     GroupStructural,
		HandlingSets:                        GroupStructural,
		AttributeNameDoesNotDefineSemantics: GroupStructural,
		AttributeComposition:                GroupStructural,
	}
	counts := map[Group]int{}
	for c, g := range wantGroups {
		info, err := Describe(c)
		if err != nil {
			t.Fatal(err)
		}
		if info.Group != g {
			t.Errorf("%v grouped as %v, want %v", c, info.Group, g)
		}
		counts[g]++
	}
	// The paper's split: 5 attribute, 3 missing-data, 4 structural.
	if counts[GroupAttribute] != 5 || counts[GroupMissingData] != 3 || counts[GroupStructural] != 4 {
		t.Errorf("group sizes: %v", counts)
	}
}

func TestDescribe(t *testing.T) {
	info, err := Describe(LanguageExpression)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "Language Expression" || !strings.Contains(info.Example, "Datenbank") {
		t.Errorf("info = %+v", info)
	}
	if _, err := Describe(Case(0)); err == nil {
		t.Error("expected error for case 0")
	}
	if _, err := Describe(Case(13)); err == nil {
		t.Error("expected error for case 13")
	}
}

func TestStrings(t *testing.T) {
	if got := Synonyms.String(); got != "case 1 (Synonyms)" {
		t.Errorf("String = %q", got)
	}
	if got := Case(99).String(); !strings.Contains(got, "unknown") {
		t.Errorf("unknown case = %q", got)
	}
	if got := Case(99).Name(); got != "unknown" {
		t.Errorf("unknown name = %q", got)
	}
	if got := GroupMissingData.String(); got != "Missing Data" {
		t.Errorf("group = %q", got)
	}
	if got := Group(9).String(); !strings.Contains(got, "Group(9)") {
		t.Errorf("bad group = %q", got)
	}
	if got := AttributeComposition.Name(); got != "Attribute Composition" {
		t.Errorf("Name = %q", got)
	}
}

func TestOrderWithinGroupsMatchesPaper(t *testing.T) {
	// The paper orders cases within each group by increasing resolution
	// effort; the numbering must match the query numbering exactly.
	names := []string{
		"Synonyms", "Simple Mapping", "Union Types", "Complex Mappings",
		"Language Expression", "Nulls", "Virtual Columns",
		"Semantic Incompatibility", "Same Attribute in Different Structure",
		"Handling Sets", "Attribute Name Does Not Define Semantics",
		"Attribute Composition",
	}
	for i, want := range names {
		if got := Case(i + 1).Name(); got != want {
			t.Errorf("case %d = %q, want %q", i+1, got, want)
		}
	}
}
