// Package engine provides the reusable, concurrency-safe query engine that
// turns the one-shot batch algorithms of internal/core into something that
// can sit behind a server:
//
//   - Prepared-table caching. uncertain.Prepare sorts, validates and indexes
//     a table; for repeated queries over slowly-changing data that dominates
//     small-query cost. The engine caches Prepared values keyed by the
//     snapshot identity (uncertain.Snapshot.ID): queries over an unchanged
//     table hand out the same snapshot and skip preparation entirely, a
//     mutation mints a fresh snapshot whose ID transparently misses, and —
//     because IDs are process-unique and never reused — a cached entry can
//     never be served for different contents, whatever happens to table
//     pointers, versions or clones.
//   - Pooled scratch. Every query draws its dynamic-programming working
//     state (grid combiner, coalescer, recycled intermediate distributions)
//     from the process-wide core.Scratch pool, so steady-state queries
//     allocate near-zero. Results are bit-identical to fresh allocation.
//   - Batched multi-query execution. Many (k, threshold) queries against
//     one prepared table share the preparation, the precomputed Theorem-2
//     prefix sums and the memoized unit decomposition; queries of equal k
//     also share their unit DPs, each computed once per batch.
//
// An Engine is safe for concurrent use. Queries that enter through a
// *Table must follow the usual Table contract (no mutation concurrent with
// the call itself), but queries that enter through a Snapshot hold nothing:
// the table may keep mutating while they run.
package engine

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"probtopk/internal/core"
	"probtopk/internal/uncertain"
)

// DefaultCacheSize is the default number of prepared snapshots an Engine
// retains. Each table occupies at most one slot in the steady state: a
// newer snapshot of the same owner eagerly drops the superseded entry.
const DefaultCacheSize = 64

// Engine is a reusable query engine with a bounded LRU cache of prepared
// snapshots, split into one or more independently locked partitions. The
// zero value is not usable; construct with New or NewPartitioned.
type Engine struct {
	cacheCap int // total budget across partitions; <= 0 disables caching
	parts    []*cachePart

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	queries    atomic.Uint64
	queryNanos atomic.Uint64

	// viewPrepares counts cache misses that were served by materializing the
	// snapshot's attached dynamic-index view (suffix reuse, shared memo)
	// instead of a from-scratch sort.
	viewPrepares atomic.Uint64
}

// cachePart is one independently locked slice of the prepared-snapshot
// cache. Entries are routed by table identity (Snapshot.Owner), so all
// snapshots of one table live in one partition — the byOwner supersede
// index stays sound — while unrelated tables stop contending on one lock.
type cachePart struct {
	cap int

	mu sync.Mutex
	// byID indexes every cached entry by its snapshot identity — the sound
	// lookup key.
	byID map[uint64]*list.Element // of *cacheEntry
	// byOwner tracks, per table identity, the entry for that table's LATEST
	// cached snapshot, so a newer snapshot can eagerly reclaim the
	// superseded one instead of letting it age out of the LRU.
	byOwner map[uint64]*list.Element
	lru     *list.List // front = most recently used
}

type cacheEntry struct {
	id    uint64 // snapshot identity
	owner uint64 // table identity
	prep  *uncertain.Prepared
}

// New returns an Engine whose prepared-snapshot cache holds up to cacheSize
// entries in a single partition. cacheSize <= 0 disables caching: every
// query prepares afresh (scratch pooling and batching still apply), which
// is the configuration benchmarks use as the uncached baseline.
func New(cacheSize int) *Engine {
	return NewPartitioned(cacheSize, 1)
}

// NewPartitioned returns an Engine whose prepared-snapshot cache is split
// into parts independently locked partitions, routed by table identity.
// The cacheSize budget is divided evenly (rounded up) across partitions;
// cacheSize <= 0 disables caching entirely, parts < 1 means one partition.
// Sharded serving layers pass their shard count so preparation-cache
// traffic for unrelated tables never meets on one mutex.
func NewPartitioned(cacheSize, parts int) *Engine {
	if parts < 1 {
		parts = 1
	}
	e := &Engine{cacheCap: cacheSize}
	if cacheSize <= 0 {
		return e
	}
	per := (cacheSize + parts - 1) / parts
	for i := 0; i < parts; i++ {
		e.parts = append(e.parts, &cachePart{
			cap:     per,
			byID:    make(map[uint64]*list.Element),
			byOwner: make(map[uint64]*list.Element),
			lru:     list.New(),
		})
	}
	return e
}

// part routes a table identity to its cache partition.
func (e *Engine) part(owner uint64) *cachePart {
	return e.parts[owner%uint64(len(e.parts))]
}

// Stats is a snapshot of the engine's cache and query counters.
type Stats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
	// PartEntries is the current entry count of each cache partition
	// (length 1 for an unpartitioned engine, nil with caching disabled).
	PartEntries []int
	// Queries counts the distribution computations the engine has run
	// (each member of a batch counts once); QueryNanos is their cumulative
	// wall-clock time in nanoseconds. Together they give the mean DP cost a
	// serving layer can export.
	Queries    uint64
	QueryNanos uint64
	// ViewPrepares counts cache misses served from a snapshot's attached
	// dynamic-index view instead of a from-scratch sort.
	ViewPrepares uint64
	// Index aggregates the dynamic-index maintenance counters
	// (uncertain.IndexTotals) across the whole process — every index behind
	// this engine's snapshots reports there, whoever owns it.
	Index uncertain.IndexStats
}

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		Hits:         e.hits.Load(),
		Misses:       e.misses.Load(),
		Evictions:    e.evictions.Load(),
		Queries:      e.queries.Load(),
		QueryNanos:   e.queryNanos.Load(),
		ViewPrepares: e.viewPrepares.Load(),
		Index:        uncertain.IndexTotals(),
	}
	for _, p := range e.parts {
		p.mu.Lock()
		n := p.lru.Len()
		p.mu.Unlock()
		st.PartEntries = append(st.PartEntries, n)
		st.Entries += n
	}
	return st
}

// recordQueries adds n computed queries taking d to the latency counters.
func (e *Engine) recordQueries(n int, d time.Duration) {
	e.queries.Add(uint64(n))
	e.queryNanos.Add(uint64(d))
}

// Prepare returns the Prepared form of t's current snapshot, from cache
// when possible. The returned Prepared is immutable and safe for concurrent
// readers for as long as the caller likes — it belongs to the snapshot, not
// to the table's future states.
func (e *Engine) Prepare(t *uncertain.Table) (*uncertain.Prepared, error) {
	if e.cacheCap <= 0 {
		e.misses.Add(1)
		return uncertain.Prepare(t)
	}
	return e.PrepareSnapshot(t.Snapshot())
}

// prepareContents builds the Prepared form of s, preferring its attached
// dynamic-index view — which reuses the index's unchanged rank prefix and
// shares the owner's memoized Prepared — over a from-scratch sort.
func (e *Engine) prepareContents(s *uncertain.Snapshot) (*uncertain.Prepared, error) {
	if v := s.IndexView(); v != nil && v.Len() == s.Len() {
		prep, err := v.Materialize()
		if err == nil {
			e.viewPrepares.Add(1)
			return prep, nil
		}
		// Invalid contents: fall through so the error comes from the same
		// validation path (and with the same wording) as uncached prepares.
	}
	return s.Prepare()
}

// PrepareSnapshot returns the Prepared form of s, keyed by its identity:
// from cache on a repeat, prepared and cached otherwise. A snapshot carrying
// a dynamic-index view (published by a mutate path that maintains an
// uncertain.Index) is materialized from the view instead of re-sorted.
func (e *Engine) PrepareSnapshot(s *uncertain.Snapshot) (*uncertain.Prepared, error) {
	if e.cacheCap <= 0 {
		e.misses.Add(1)
		return e.prepareContents(s)
	}
	id := s.ID()
	p := e.part(s.Owner())
	p.mu.Lock()
	if el, ok := p.byID[id]; ok {
		p.lru.MoveToFront(el)
		p.mu.Unlock()
		e.hits.Add(1)
		return el.Value.(*cacheEntry).prep, nil
	}
	p.mu.Unlock()
	e.misses.Add(1)
	// Prepare outside the lock: sorting a large snapshot must not block
	// concurrent cache hits. A racing prepare of the same snapshot does
	// redundant work but stays correct (the first insert wins).
	prep, err := e.prepareContents(s)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	e.evictions.Add(p.insertLocked(&cacheEntry{id: id, owner: s.Owner(), prep: prep}))
	p.mu.Unlock()
	return prep, nil
}

// insertLocked adds ent to the partition, returning how many entries the
// LRU bound evicted. A newer snapshot of the same owner supersedes that
// owner's previous entry, which is dropped eagerly (it is unreachable
// through the table; a holder of the old snapshot re-prepares). An OLDER
// snapshot arriving late — a slow query racing a mutation — is cached by
// ID without disturbing the owner index, so it never shadows the current
// state's entry. Callers hold p.mu.
func (p *cachePart) insertLocked(ent *cacheEntry) (evicted uint64) {
	if el, ok := p.byID[ent.id]; ok {
		// A racing prepare of the same snapshot beat us; keep the resident
		// entry (identical contents) fresh.
		p.lru.MoveToFront(el)
		return 0
	}
	ownerIndexed := true
	if el, ok := p.byOwner[ent.owner]; ok {
		if el.Value.(*cacheEntry).id < ent.id {
			p.removeLocked(el)
		} else {
			ownerIndexed = false
		}
	}
	el := p.lru.PushFront(ent)
	p.byID[ent.id] = el
	if ownerIndexed {
		p.byOwner[ent.owner] = el
	}
	for p.lru.Len() > p.cap {
		p.removeLocked(p.lru.Back())
		evicted++
	}
	return evicted
}

// removeLocked unlinks el from every index. Callers hold p.mu.
func (p *cachePart) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	p.lru.Remove(el)
	delete(p.byID, ent.id)
	if cur, ok := p.byOwner[ent.owner]; ok && cur == el {
		delete(p.byOwner, ent.owner)
	}
}

// Invalidate drops the cached preparation of t's latest snapshot, releasing
// the engine's reference to it. (Entries for t's older snapshots were
// already dropped when the newer one was cached.) A nil table is a no-op.
func (e *Engine) Invalidate(t *uncertain.Table) {
	if t == nil || e.cacheCap <= 0 {
		return
	}
	p := e.part(t.Identity())
	p.mu.Lock()
	if el, ok := p.byOwner[t.Identity()]; ok {
		p.removeLocked(el)
	}
	p.mu.Unlock()
}

// InvalidateSnapshot drops the cache entry for the snapshot with the given
// identity, if present. Only the snapshot ID is known, not its owner, so
// every partition is checked — the operation is rare (explicit cache
// release), the partitions few.
func (e *Engine) InvalidateSnapshot(id uint64) {
	for _, p := range e.parts {
		p.mu.Lock()
		if el, ok := p.byID[id]; ok {
			p.removeLocked(el)
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
}

// Distribution answers one main-algorithm query over t, using the cached
// preparation and pooled scratch.
func (e *Engine) Distribution(t *uncertain.Table, params core.Params) (*core.Result, error) {
	prep, err := e.Prepare(t)
	if err != nil {
		return nil, err
	}
	return e.DistributionPrepared(prep, params)
}

// DistributionPrepared answers one main-algorithm query over an
// already-prepared table with pooled scratch.
func (e *Engine) DistributionPrepared(p *uncertain.Prepared, params core.Params) (*core.Result, error) {
	s := core.GetScratch()
	defer core.PutScratch(s)
	start := time.Now()
	res, err := core.DistributionScratch(p, params, s)
	e.recordQueries(1, time.Since(start))
	return res, err
}

// Query is one member of a batch: a (k, threshold) pair evaluated against
// the shared prepared table. Threshold carries core.Params semantics
// (0 means exact; callers resolve any public-API sentinel beforehand).
type Query struct {
	K         int
	Threshold float64
}

// Batch answers many (k, threshold) queries against one table, sharing a
// single (cached) preparation, the precomputed prefix sums and the memoized
// unit decomposition. Queries are grouped by k, and each group is one
// core.DistributionBatch: its unit DPs run once for all of the group's
// thresholds, on base.Parallelism unit workers as for a single query.
//
// Results are indexed like queries. An invalid query aborts the batch.
func (e *Engine) Batch(t *uncertain.Table, base core.Params, queries []Query) ([]*core.Result, error) {
	prep, err := e.Prepare(t)
	if err != nil {
		return nil, err
	}
	return e.BatchPrepared(prep, base, queries, 0)
}

// BatchPrepared is Batch against an already-prepared table. The last
// argument is unused: it was a query-level worker count, and stays only so
// that existing callers (perfbench's replay) keep compiling.
func (e *Engine) BatchPrepared(p *uncertain.Prepared, base core.Params, queries []Query, _ int) ([]*core.Result, error) {
	results := make([]*core.Result, len(queries))
	if len(queries) == 0 {
		return results, nil
	}
	s := core.GetScratch()
	defer core.PutScratch(s)
	var members []int
	var thresholds []float64
	for i, q := range queries {
		if results[i] != nil {
			continue // answered in the group of an earlier query with its k
		}
		members, thresholds = members[:0], thresholds[:0]
		for j := i; j < len(queries); j++ {
			if queries[j].K == q.K {
				members = append(members, j)
				thresholds = append(thresholds, queries[j].Threshold)
			}
		}
		params := base
		params.K = q.K
		start := time.Now()
		group, err := core.DistributionBatch(p, params, thresholds, s)
		if err != nil {
			return nil, err
		}
		e.recordQueries(len(group), time.Since(start))
		for g, j := range members {
			results[j] = group[g]
		}
	}
	return results, nil
}
