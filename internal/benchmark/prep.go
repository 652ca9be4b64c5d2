package benchmark

import (
	"sync"
	"sync/atomic"

	"thalia/internal/integration"
)

// PrepCache is the per-run shared-preparation cache for expected answers.
// The ground-truth rows for a query are the same for every system, but the
// sequential seed path recomputed them per cell — 12 queries × 4 systems =
// 48 generator walks per run. The cache computes each query's rows once;
// sharing is safe because integration.MatchRows reads its inputs without
// mutating them.
//
// Failed preparations are never cached (the errors-never-cached convention):
// a transient failure is recomputed, not pinned.
//
// A PrepCache is safe for concurrent use by the runner's worker pool. It
// only memoizes; scorecards are byte-identical with and without one.
type PrepCache struct {
	mu   sync.RWMutex
	want map[int][]integration.Row

	hits   atomic.Int64
	misses atomic.Int64
}

// NewPrepCache returns an empty shared-prep cache.
func NewPrepCache() *PrepCache {
	return &PrepCache{want: make(map[int][]integration.Row)}
}

// Expected returns the query's expected integrated rows, computing them on
// first use. Callers must treat the returned rows as read-only — they are
// shared across every cell of the run.
func (p *PrepCache) Expected(q *Query) ([]integration.Row, error) {
	p.mu.RLock()
	rows, ok := p.want[q.ID]
	p.mu.RUnlock()
	if ok {
		p.hits.Add(1)
		return rows, nil
	}
	rows, err := q.Expected()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if prev, ok := p.want[q.ID]; ok {
		rows = prev
	} else {
		p.want[q.ID] = rows
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return rows, nil
}

// Stats reports how many Expected calls hit and missed the cache.
func (p *PrepCache) Stats() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}

// expected resolves a query's ground truth through the runner's prep cache
// when one is attached, or directly on the seed path.
func (r *Runner) expected(q *Query) ([]integration.Row, error) {
	if r.Prep == nil {
		return q.Expected()
	}
	return r.Prep.Expected(q)
}
