package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"thalia/internal/integration"
	"thalia/internal/xmldom"
)

// generatedDigest hashes everything the generator emits for the first n
// sources of a uniform scenario: the query spec, the expected answer, and
// both rendered documents serialized byte for byte.
func generatedDigest(t *testing.T, seed int64, n, size int) string {
	t.Helper()
	sc, err := New(Params{Sources: n, Seed: seed, Size: size})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		fmt.Fprintf(h, "%+v\n%v\n", sc.Spec(i), sc.Truth(i))
		var ref strings.Builder
		if err := sc.ReferenceDocument(i).WriteTo(&ref, xmldom.WriteOptions{Indent: "  "}); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%s\n", ref.String(), sc.ChallengeXML(i))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedArtifactsPinned pins the generator's output: specs, truth
// and both documents of 60 sources (every class, several times) at two
// seeds and sizes. Rendering and generation may get faster; what they emit
// may not change, since committed scale baselines and journals assume it.
func TestGeneratedArtifactsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed       int64
		size       int
		wantSHA256 string
	}{
		{seed: 42, size: 0, wantSHA256: "299c144992d5c56a06a4407d88b7cdd41b34dec27f73657f1c525048287016af"},
		{seed: -7, size: 3, wantSHA256: "edd05587b1cf99bdba1387d2f65acb694e99b648e091669b2c8491008867f605"},
	} {
		if got := generatedDigest(t, tc.seed, 60, tc.size); got != tc.wantSHA256 {
			t.Errorf("seed %d size %d: generated artifacts digest %s, want %s", tc.seed, tc.size, got, tc.wantSHA256)
		}
	}
}

// TestCourseElementSlabs checks the slab-built course element against the
// node model's own invariants: every child points back at its parent, and
// child lists have no spare capacity for a later append to write through
// into a neighbour's slots.
func TestCourseElementSlabs(t *testing.T) {
	sc, err := New(Params{Sources: 24, Seed: 5, Size: 3})
	if err != nil {
		t.Fatal(err)
	}
	var check func(e *xmldom.Element)
	check = func(e *xmldom.Element) {
		if len(e.Children) != cap(e.Children) {
			t.Fatalf("<%s>: %d children with capacity %d", e.Name, len(e.Children), cap(e.Children))
		}
		for _, ch := range e.Children {
			if ch.Parent() != e {
				t.Fatalf("<%s>: child %v has the wrong parent", e.Name, ch)
			}
			if el, ok := ch.(*xmldom.Element); ok {
				check(el)
			}
		}
	}
	pooled := &arena{pooled: true}
	for i := 0; i < sc.Sources(); i++ {
		for _, course := range sc.ChallengeDocument(i).Root.ChildElements() {
			check(course)
		}
		doc, _ := sc.render(i, true, pooled)
		for _, course := range doc.Root.ChildElements() {
			check(course)
		}
	}
}

// TestPooledArenaRendersLikeFresh renders a scenario's sources one after
// another into one pooled arena, so each lands in storage the previous
// document used, and checks each against a fresh rendering byte for byte.
func TestPooledArenaRendersLikeFresh(t *testing.T) {
	sc, err := New(Params{Sources: 36, Seed: 8, Size: 5})
	if err != nil {
		t.Fatal(err)
	}
	pooled := &arena{pooled: true}
	for _, i := range []int{3, 0, 35, 7, 7, 20, 11, 2, 29} {
		doc, _ := sc.render(i, true, pooled)
		var got strings.Builder
		if err := doc.WriteTo(&got, xmldom.WriteOptions{Indent: "  "}); err != nil {
			t.Fatal(err)
		}
		if want := sc.ChallengeXML(i); got.String() != want {
			t.Fatalf("source %d: pooled rendering differs from a fresh one:\n%s\n--- want ---\n%s", i, got.String(), want)
		}
	}
}

// Budgets for one streaming cell over a uniform scenario: its expected
// answer plus the mediator's answer, which renders the challenge document
// into a recycled arena, compiles and runs the query and shapes the rows.
// A cell takes about 275 allocations and 13 KB. Rendering into a fresh
// arena per cell (about 330 allocations and 44 KB) blows both budgets, and
// a slice of instructors per course (about 16.5 KB) the byte budget.
const (
	cellAllocBudget = 310
	cellByteBudget  = 16 << 10
)

// challengeDocBytes is what ChallengeDocument allocated per document at
// seed 11, 48 sources, before documents had arenas: a fresh arena must
// cost no more than per-course slabs did. (One sized like a pooled arena
// takes about 78 KB.)
const challengeDocBytes = 34400

func TestCellAllocationBudget(t *testing.T) {
	sc, err := New(Params{Sources: 48, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	med := sc.NewMediator()
	cells := func() {
		for i := 0; i < sc.Sources(); i++ {
			sc.Truth(i)
			if _, err := med.Answer(integration.Request{QueryID: i + 1, Challenge: sc.Name(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := float64(sc.Sources())
	perCell := testing.AllocsPerRun(5, cells) / n
	bytesPerCell := bytesPerRun(5, cells) / n
	t.Logf("%.0f allocations and %.0f bytes per cell", perCell, bytesPerCell)
	if perCell > cellAllocBudget {
		t.Errorf("%.0f allocations per cell, budget %d", perCell, cellAllocBudget)
	}
	if bytesPerCell > cellByteBudget {
		t.Errorf("%.0f bytes per cell, budget %d", bytesPerCell, cellByteBudget)
	}
	perDoc := bytesPerRun(5, func() {
		for i := 0; i < sc.Sources(); i++ {
			sc.ChallengeDocument(i)
		}
	}) / n
	t.Logf("%.0f bytes per challenge document", perDoc)
	if perDoc > challengeDocBytes {
		t.Errorf("ChallengeDocument allocates %.0f bytes per document, more than the %d of per-course slabs", perDoc, challengeDocBytes)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean bytes allocated
// by one call of f, after a warm-up call, on one P so no other goroutine's
// allocations count.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
