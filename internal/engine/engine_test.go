package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"probtopk/internal/core"
	"probtopk/internal/pmf"
	"probtopk/internal/uncertain"
)

func randomTable(r *rand.Rand, n int, groupFrac float64) *uncertain.Table {
	tab := uncertain.NewTable()
	mass := make(map[string]float64)
	for i := 0; i < n; i++ {
		prob := 0.05 + 0.25*r.Float64()
		group := ""
		if r.Float64() < groupFrac {
			g := fmt.Sprintf("g%d", r.Intn(3))
			if mass[g]+prob <= 1 {
				group = g
				mass[g] += prob
			}
		}
		tab.Add(uncertain.Tuple{
			ID:    fmt.Sprintf("t%d", i),
			Score: math.Floor(100 * r.Float64()),
			Prob:  prob,
			Group: group,
		})
	}
	return tab
}

func sameDist(t *testing.T, label string, got, want *pmf.Dist) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d lines, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.Line(i), want.Line(i)
		if g.Score != w.Score || g.Prob != w.Prob || g.VecProb != w.VecProb {
			t.Fatalf("%s: line %d = %+v, want %+v", label, i, g, w)
		}
		gs, ws := g.Vec.Slice(), w.Vec.Slice()
		if len(gs) != len(ws) {
			t.Fatalf("%s: line %d vector %v, want %v", label, i, gs, ws)
		}
		for j := range gs {
			if gs[j] != ws[j] {
				t.Fatalf("%s: line %d vector %v, want %v", label, i, gs, ws)
			}
		}
	}
}

// TestCacheHitMiss: repeated Prepare over an unchanged table returns the
// identical Prepared from cache; mutating the table invalidates.
func TestCacheHitMiss(t *testing.T) {
	e := New(8)
	tab := randomTable(rand.New(rand.NewSource(1)), 20, 0.3)

	p1, err := e.Prepare(tab)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Prepare(tab)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second Prepare over unchanged table did not hit the cache")
	}
	if s := e.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}

	tab.AddIndependent("fresh", 55, 0.5)
	p3, err := e.Prepare(tab)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("Prepare after mutation returned the stale Prepared")
	}
	if p3.Len() != tab.Len() {
		t.Fatalf("stale preparation: %d tuples, table has %d", p3.Len(), tab.Len())
	}
	// The stale version is replaced, not kept alongside.
	if s := e.Stats(); s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats after mutation = %+v, want 2 misses / 1 entry", s)
	}
}

// TestCacheEvictionAndInvalidate: the LRU bound holds, and Invalidate
// releases an entry.
func TestCacheEvictionAndInvalidate(t *testing.T) {
	e := New(2)
	r := rand.New(rand.NewSource(2))
	tabs := []*uncertain.Table{
		randomTable(r, 8, 0), randomTable(r, 8, 0), randomTable(r, 8, 0),
	}
	for _, tab := range tabs {
		if _, err := e.Prepare(tab); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", s)
	}
	// tabs[0] was evicted (LRU); tabs[2] is cached.
	if _, err := e.Prepare(tabs[2]); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit on the resident table", s)
	}
	e.Invalidate(tabs[2])
	if s := e.Stats(); s.Entries != 1 {
		t.Fatalf("after Invalidate: %d entries, want 1", s.Entries)
	}
}

// TestCacheDisabled: cache size 0 prepares afresh every time.
func TestCacheDisabled(t *testing.T) {
	e := New(0)
	tab := randomTable(rand.New(rand.NewSource(3)), 12, 0.2)
	p1, err := e.Prepare(tab)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Prepare(tab)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("cache-disabled engine returned a cached Prepared")
	}
}

// TestPooledScratchBitIdentical: query results through the engine's pooled
// (and warmed, recycled) scratch are bit-identical to a fresh zero Scratch
// on every trial — the pooling is purely an allocation optimisation.
func TestPooledScratchBitIdentical(t *testing.T) {
	e := New(8)
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		tab := randomTable(r, 10+r.Intn(20), 0.4)
		if tab.Validate() != nil {
			continue
		}
		params := core.Params{
			K: 1 + r.Intn(4), Threshold: 0.001, MaxLines: 50, TrackVectors: true,
		}
		got, err := e.Distribution(tab, params)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := uncertain.Prepare(tab)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.DistributionScratch(prep, params, new(core.Scratch))
		if err != nil {
			t.Fatal(err)
		}
		sameDist(t, fmt.Sprintf("trial %d", trial), got.Dist, want.Dist)
	}
}

// TestBatchMatchesIndividual: a mixed-k batch, serial and with its unit
// DPs fanned out, gives exactly the per-query results, and the query
// counter counts every answer.
func TestBatchMatchesIndividual(t *testing.T) {
	e := New(8)
	tab := randomTable(rand.New(rand.NewSource(5)), 40, 0.3)
	queries := []Query{
		{K: 1, Threshold: 0.001}, {K: 2, Threshold: 0.001}, {K: 3, Threshold: 0},
		{K: 2, Threshold: 0.05}, {K: 5, Threshold: 0.001}, {K: 4, Threshold: 0.01},
	}
	for _, par := range []int{1, 4} {
		base := core.Params{MaxLines: 100, TrackVectors: true, Parallelism: par}
		before := e.Stats().Queries
		results, err := e.Batch(tab, base, queries)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Stats().Queries - before; got != uint64(len(queries)) {
			t.Fatalf("par=%d: the batch counted %d queries, want %d", par, got, len(queries))
		}
		if len(results) != len(queries) {
			t.Fatalf("par=%d: %d results for %d queries", par, len(results), len(queries))
		}
		for i, q := range queries {
			params := base
			params.K = q.K
			params.Threshold = q.Threshold
			want, err := e.Distribution(tab, params)
			if err != nil {
				t.Fatal(err)
			}
			sameDist(t, fmt.Sprintf("par=%d query %d", par, i), results[i].Dist, want.Dist)
			if results[i].ScanDepth != want.ScanDepth || results[i].Units != want.Units || results[i].Cells != want.Cells {
				t.Fatalf("par=%d query %d: depth/units/cells %d/%d/%d, want %d/%d/%d", par, i,
					results[i].ScanDepth, results[i].Units, results[i].Cells, want.ScanDepth, want.Units, want.Cells)
			}
		}
	}
	// The whole exercise prepared the table exactly once.
	if s := e.Stats(); s.Misses != 1 {
		t.Fatalf("stats = %+v, want a single preparation", s)
	}
}

// TestBatchError: an invalid query aborts the batch, serial or fanned out.
func TestBatchError(t *testing.T) {
	e := New(4)
	tab := randomTable(rand.New(rand.NewSource(6)), 10, 0)
	queries := []Query{{K: 2, Threshold: 0.001}, {K: 0, Threshold: 0.001}}
	for _, par := range []int{1, 2} {
		if _, err := e.Batch(tab, core.Params{TrackVectors: true, Parallelism: par}, queries); err == nil {
			t.Fatalf("par=%d: k=0 should error", par)
		}
	}
}

// TestConcurrentQueries: many goroutines querying one engine and table get
// identical answers (run with -race to exercise the cache and scratch pool).
func TestConcurrentQueries(t *testing.T) {
	e := New(4)
	tab := randomTable(rand.New(rand.NewSource(7)), 30, 0.3)
	params := core.Params{K: 3, Threshold: 0.001, MaxLines: 60, TrackVectors: true}
	want, err := e.Distribution(tab, params)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := e.Distribution(tab, params)
				if err != nil {
					errc <- err
					return
				}
				if res.Dist.Len() != want.Dist.Len() || res.Dist.TotalMass() != want.Dist.TotalMass() {
					errc <- fmt.Errorf("concurrent result diverged: %v vs %v", res.Dist, want.Dist)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestQueryLatencyCounters(t *testing.T) {
	e := New(4)
	tab := randomTable(rand.New(rand.NewSource(3)), 30, 0.3)
	if _, err := e.Distribution(tab, core.Params{K: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Batch(tab, core.Params{}, []Query{{K: 1}, {K: 2}, {K: 3}}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Queries != 4 {
		t.Fatalf("Queries = %d, want 4", s.Queries)
	}
	if s.QueryNanos == 0 {
		t.Fatal("QueryNanos = 0, want > 0")
	}
}

// TestCacheNoCrossServeAcrossCloneAndRecreate regression-tests the
// identity-keyed cache against the scenarios the old (pointer, version) key
// could get wrong: a clone shares its origin's Version, and a recreated
// table built by the same number of Adds shares it too — the cache must
// serve each its own preparation.
func TestCacheNoCrossServeAcrossCloneAndRecreate(t *testing.T) {
	e := New(8)
	tab := uncertain.NewTable()
	tab.AddIndependent("a", 10, 0.5)
	tab.AddIndependent("b", 5, 0.5)
	p1, err := e.Prepare(tab)
	if err != nil {
		t.Fatal(err)
	}

	clone := tab.Clone()
	clone.AddIndependent("c", 99, 0.5)
	pc, err := e.Prepare(clone)
	if err != nil {
		t.Fatal(err)
	}
	if pc == p1 || pc.Len() != 3 {
		t.Fatalf("clone served its origin's preparation: %v", pc)
	}
	// The origin still hits its own entry.
	back, err := e.Prepare(tab)
	if err != nil {
		t.Fatal(err)
	}
	if back != p1 {
		t.Fatal("origin's cache entry was clobbered by the clone")
	}

	// Recreate: same Add count and Version as tab, different contents.
	again := uncertain.NewTable()
	again.AddIndependent("a", 77, 0.5)
	again.AddIndependent("b", 5, 0.5)
	if again.Version() != tab.Version() {
		t.Fatalf("precondition: versions differ (%d vs %d)", again.Version(), tab.Version())
	}
	pa, err := e.Prepare(again)
	if err != nil {
		t.Fatal(err)
	}
	if pa == p1 || pa.Tuples[0].Score != 77 {
		t.Fatalf("recreated table served stale contents: %+v", pa.Tuples[0])
	}
}

// TestPrepareSnapshotConcurrentWithMutation: queries over earlier snapshots
// run (and cache) correctly while the table keeps mutating — the lock-free
// read guarantee at the engine layer. Run with -race.
func TestPrepareSnapshotConcurrentWithMutation(t *testing.T) {
	e := New(8)
	tab := randomTable(rand.New(rand.NewSource(9)), 40, 0.3)
	var wg sync.WaitGroup
	for step := 0; step < 60; step++ {
		s := tab.Snapshot()
		wantLen := tab.Len()
		wg.Add(1)
		go func() {
			defer wg.Done()
			prep, err := e.PrepareSnapshot(s)
			if err != nil {
				t.Error(err)
				return
			}
			if prep.Len() != wantLen {
				t.Errorf("prepared %d tuples, want %d", prep.Len(), wantLen)
				return
			}
			if _, err := e.DistributionPrepared(prep, core.Params{K: 2, Threshold: 0.001}); err != nil {
				t.Error(err)
			}
		}()
		tab.AddIndependent(fmt.Sprintf("new%d", step), float64(step%50), 0.4)
	}
	wg.Wait()

	// A late insert of an old snapshot must not shadow the current state:
	// after everything drains, preparing the current snapshot returns the
	// current contents.
	prep, err := e.Prepare(tab)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Len() != tab.Len() {
		t.Fatalf("current preparation has %d tuples, want %d", prep.Len(), tab.Len())
	}
}

// TestInvalidateSnapshot: dropping a snapshot's entry forces a re-prepare
// without touching other entries.
func TestInvalidateSnapshot(t *testing.T) {
	e := New(8)
	tab := randomTable(rand.New(rand.NewSource(10)), 10, 0)
	s := tab.Snapshot()
	p1, err := e.PrepareSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	e.InvalidateSnapshot(s.ID())
	if st := e.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after InvalidateSnapshot", st.Entries)
	}
	p2, err := e.PrepareSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("invalidated entry was still served")
	}
}

// TestInvalidateNilTable: Invalidate(nil) is a safe no-op, as it was before
// identity keying.
func TestInvalidateNilTable(t *testing.T) {
	e := New(4)
	e.Invalidate(nil) // must not panic
	if st := e.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d", st.Entries)
	}
}

// TestInvalidateAfterDeleteRecreate covers the delete-recreate lifecycle
// the durable registry performs on recovery: the original table's entry is
// invalidated on delete, a re-created table with identical contents gets a
// FRESH identity (recovery re-mints identities on every boot), and neither
// Invalidate of the dead table nor late traffic on the new one can
// resurrect or disturb the other's cache entries.
func TestInvalidateAfterDeleteRecreate(t *testing.T) {
	e := New(8)
	old := randomTable(rand.New(rand.NewSource(20)), 12, 0.5)
	oldSnap := old.Snapshot()
	oldPrep, err := e.PrepareSnapshot(oldSnap)
	if err != nil {
		t.Fatal(err)
	}
	// "Delete": the server invalidates by table on the remove path.
	e.Invalidate(old)
	if st := e.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after delete", st.Entries)
	}
	// "Recreate": identical contents, fresh identity (as after recovery).
	fresh := uncertain.NewTable()
	for _, tp := range old.Tuples() {
		fresh.Add(tp)
	}
	freshSnap := fresh.Snapshot()
	if freshSnap.ID() == oldSnap.ID() || freshSnap.Owner() == oldSnap.Owner() {
		t.Fatalf("recreate reused identity: %d/%d", freshSnap.ID(), freshSnap.Owner())
	}
	freshPrep, err := e.PrepareSnapshot(freshSnap)
	if err != nil {
		t.Fatal(err)
	}
	if freshPrep == oldPrep {
		t.Fatal("recreated table served the dead table's preparation")
	}
	// Invalidating the DEAD table again must not touch the new entry...
	e.Invalidate(old)
	e.InvalidateSnapshot(oldSnap.ID())
	if p, err := e.PrepareSnapshot(freshSnap); err != nil || p != freshPrep {
		t.Fatalf("stale invalidation disturbed the live entry: %p vs %p (%v)", p, freshPrep, err)
	}
	// ...and invalidating the new table must not resurrect the old one.
	e.Invalidate(fresh)
	if st := e.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after invalidating recreate", st.Entries)
	}
}

// TestInvalidateSnapshotAfterSupersede covers InvalidateSnapshot on the
// byOwner supersede path: once a newer snapshot of the same table is
// cached, the older entry is gone, and invalidating the old ID is a no-op
// that must not drop the newer entry. A late re-insert of the OLD snapshot
// (a slow query finishing after a mutation) is cached by ID without
// touching the owner index — Invalidate(table) then removes the latest
// entry, and InvalidateSnapshot is what reclaims the late straggler.
func TestInvalidateSnapshotAfterSupersede(t *testing.T) {
	e := New(8)
	tab := randomTable(rand.New(rand.NewSource(21)), 10, 0.3)
	s1 := tab.Snapshot()
	if _, err := e.PrepareSnapshot(s1); err != nil {
		t.Fatal(err)
	}
	tab.AddIndependent("extra", 55, 0.5)
	s2 := tab.Snapshot()
	p2, err := e.PrepareSnapshot(s2) // supersedes s1's entry eagerly
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after supersede", st.Entries)
	}
	e.InvalidateSnapshot(s1.ID()) // stale ID: must be a no-op
	if p, err := e.PrepareSnapshot(s2); err != nil || p != p2 {
		t.Fatalf("stale InvalidateSnapshot dropped the live entry (%v)", err)
	}

	// Late straggler: the superseded snapshot is re-prepared after the
	// fact (a slow query), landing in the cache by ID only.
	if _, err := e.PrepareSnapshot(s1); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d with straggler", st.Entries)
	}
	// The owner index still points at the LATEST snapshot: invalidating
	// the table removes s2's entry, not the straggler...
	e.Invalidate(tab)
	if p, err := e.PrepareSnapshot(s1); err != nil {
		t.Fatal(err)
	} else if st := e.Stats(); st.Entries != 1 || st.Hits == 0 && p == nil {
		t.Fatalf("straggler lost with the owner entry: %+v", st)
	}
	// ...and InvalidateSnapshot reclaims the straggler by its own ID.
	e.InvalidateSnapshot(s1.ID())
	if st := e.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after reclaiming straggler", st.Entries)
	}
}
