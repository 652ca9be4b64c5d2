package cohera

import (
	"errors"
	"fmt"
	"testing"

	"thalia/internal/integration"
	"thalia/internal/minidb"
)

// A transient shredding failure must be all-or-nothing: the failing call
// reports the error, no partially-shredded database is ever published, and
// the next call rebuilds and succeeds. The old sync.Once build cached the
// error (and a half-shredded DB) forever — this pins the fix.
func TestBuildHealsAfterTransientFailure(t *testing.T) {
	s := New()
	calls := 0
	s.shred = func(db *minidb.DB) error {
		calls++
		if calls == 1 {
			return fmt.Errorf("transient source outage")
		}
		return shredAll(db)
	}

	if db, err := s.DB(); err == nil {
		t.Fatal("first build succeeded, want transient failure")
	} else if db != nil {
		t.Fatal("failing build published a partial database")
	}

	db, err := s.DB()
	if err != nil {
		t.Fatalf("second build still failing: %v (error was cached)", err)
	}
	if db == nil {
		t.Fatal("second build returned no database")
	}
	if _, err := db.Query("SELECT * FROM gatech"); err != nil {
		t.Fatalf("healed database is missing relations: %v", err)
	}
	if calls != 2 {
		t.Fatalf("shred ran %d times, want 2 (fail, then heal)", calls)
	}

	// The healed database is cached: a third call must not rebuild.
	if _, err := s.DB(); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("shred ran %d times after a successful build, want 2 (success cached)", calls)
	}
}

// A failing build must also fail Answer without caching the error.
func TestAnswerHealsAfterTransientFailure(t *testing.T) {
	s := New()
	calls := 0
	wantErr := errors.New("transient source outage")
	s.shred = func(db *minidb.DB) error {
		calls++
		if calls == 1 {
			return wantErr
		}
		return shredAll(db)
	}
	if _, err := s.Answer(integration.Request{QueryID: 1}); !errors.Is(err, wantErr) {
		t.Fatalf("first Answer error = %v, want the injected outage", err)
	}
	ans, err := s.Answer(integration.Request{QueryID: 1})
	if err != nil {
		t.Fatalf("second Answer still failing: %v", err)
	}
	if len(ans.Rows) == 0 {
		t.Fatal("healed Answer returned no rows")
	}
}
