package xsd

import (
	"reflect"
	"testing"

	"thalia/internal/xmldom"
)

func introspectSchema(t *testing.T) *Schema {
	t.Helper()
	doc := xmldom.MustParse(`<umd>
		<Course id="1"><Title>DB</Title><Section><Time room="K1">10</Time></Section></Course>
		<Course id="2"><Title>OS</Title><Section><Time room="K2">11</Time></Section></Course>
	</umd>`)
	s, err := Infer("umd", doc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWalkDeclsPaths(t *testing.T) {
	s := introspectSchema(t)
	var paths []string
	s.WalkDecls(func(path string, d *ElementDecl) bool {
		paths = append(paths, path)
		return true
	})
	want := []string{"umd", "umd/Course", "umd/Course/Title", "umd/Course/Section", "umd/Course/Section/Time"}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("paths = %v, want %v", paths, want)
	}
}

func TestDescendants(t *testing.T) {
	s := introspectSchema(t)
	if got := s.Root.Descendants("Time"); len(got) != 1 {
		t.Errorf("Descendants(Time) = %d decls", len(got))
	}
	if got := s.Root.Descendants("*"); len(got) != 4 {
		t.Errorf("Descendants(*) = %d decls, want 4", len(got))
	}
}

func TestVocabulary(t *testing.T) {
	s := introspectSchema(t)
	want := []string{"@id", "@room", "Course", "Section", "Time", "Title", "umd"}
	if got := s.Vocabulary(); !reflect.DeepEqual(got, want) {
		t.Errorf("Vocabulary = %v, want %v", got, want)
	}
}

func TestLeafType(t *testing.T) {
	s, err := Infer("r", xmldom.MustParse(`<r><n>5</n></r>`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Root.Child("n").LeafType(); got != TypeInteger {
		t.Errorf("LeafType(n) = %v", got)
	}
	if got := s.Root.LeafType(); got != TypeInteger {
		t.Errorf("LeafType(root) = %v", got)
	}
}
