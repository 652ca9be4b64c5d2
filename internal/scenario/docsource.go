package scenario

import (
	"sync"

	"thalia/internal/xmldom"
)

// DocSource materializes challenge documents on demand and releases them —
// the streaming evaluation's memory bound. A document lives exactly as
// long as some cell holds a reference to it, so a run over any number of
// sources keeps O(worker pool) documents live, never O(sources).
//
// Regeneration is free of coordination hazards because documents are pure
// functions of (seed, index): concurrent acquirers of the same source can
// each build the document and any copy is interchangeable.
//
// Every document is rendered per cell; only its storage is reused. Each
// document lives in an arena its entry owns, and the last Release puts the
// arena on a free list for the next Acquire to render into — a memory
// pool, not a result cache.
type DocSource struct {
	sc *Scenario

	mu        sync.Mutex
	live      map[int]*docEntry
	free      []*arena
	builds    int
	highWater int

	// poison makes the last Release overwrite the released document, so
	// a test that reads a document after its release sees it change.
	poison bool
}

type docEntry struct {
	doc   *xmldom.Document
	spec  QuerySpec
	refs  int
	arena *arena
}

// NewDocSource returns an empty source over the scenario.
func NewDocSource(sc *Scenario) *DocSource {
	return &DocSource{sc: sc, live: map[int]*docEntry{}}
}

// Acquire returns source i's challenge document with its query spec, both
// from one walk of the source's stream, building them if no holder exists,
// and takes a reference. Every Acquire must be paired with a Release or the
// memory bound degrades to O(sources).
func (ds *DocSource) Acquire(i int) (*xmldom.Document, QuerySpec) {
	ds.mu.Lock()
	if e, ok := ds.live[i]; ok {
		e.refs++
		ds.mu.Unlock()
		return e.doc, e.spec
	}
	var a *arena
	if k := len(ds.free) - 1; k >= 0 {
		a, ds.free = ds.free[k], ds.free[:k]
	} else {
		a = &arena{pooled: true}
	}
	ds.mu.Unlock()
	doc, spec := ds.sc.render(i, true, a) // built outside the lock; builds may race
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if e, ok := ds.live[i]; ok { // another acquirer won; share its copy
		ds.recycle(a)
		e.refs++
		return e.doc, e.spec
	}
	ds.builds++
	ds.live[i] = &docEntry{doc: doc, spec: spec, refs: 1, arena: a}
	if len(ds.live) > ds.highWater {
		ds.highWater = len(ds.live)
	}
	return doc, spec
}

// Release drops one reference to source i; the last release frees the
// document and returns its arena to the free list.
func (ds *DocSource) Release(i int) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if e, ok := ds.live[i]; ok {
		if e.refs--; e.refs <= 0 {
			delete(ds.live, i)
			ds.recycle(e.arena)
		}
	}
}

// recycle puts an arena no document in use lives in on the free list.
// The caller holds ds.mu.
func (ds *DocSource) recycle(a *arena) {
	if ds.poison {
		a.poison()
	}
	ds.free = append(ds.free, a)
}

// Stats reports how many documents were ever built, how many are live now,
// and the peak simultaneous count — the number the streaming regression
// test asserts stays bounded by the worker pool.
func (ds *DocSource) Stats() (builds, live, highWater int) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.builds, len(ds.live), ds.highWater
}
