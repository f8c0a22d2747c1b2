package core

import (
	"math/rand"
	"runtime"
	"testing"

	"probtopk/internal/cartel"
	"probtopk/internal/uncertain"
)

// TestParallelMatchesSerial: the worker-pool execution must produce a
// line-identical distribution and the same counters as serial execution.
func TestParallelMatchesSerial(t *testing.T) {
	area := cartel.GenerateArea(cartel.Config{Segments: 120, Seed: 11})
	tab, err := area.CongestionTable(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := uncertain.Prepare(tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{5, 20} {
		params := Params{K: k, Threshold: 0.001, MaxLines: 100, TrackVectors: true}
		serial, err := Distribution(p, params)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 16} {
			params.Parallelism = workers
			par, err := Distribution(p, params)
			if err != nil {
				t.Fatal(err)
			}
			if par.Cells != serial.Cells || par.Units != serial.Units || par.ScanDepth != serial.ScanDepth {
				t.Fatalf("k=%d workers=%d: counters differ: %+v vs %+v", k, workers, par, serial)
			}
			sameDist(t, "parallel", par.Dist, serial.Dist)
			ls, _ := serial.Dist.MaxVecProbLine()
			lp, _ := par.Dist.MaxVecProbLine()
			if ls.VecProb != lp.VecProb || ls.Score != lp.Score {
				t.Fatalf("k=%d workers=%d: U-Topk differs", k, workers)
			}
		}
	}
}

// TestParallelSmallTables: degenerate worker counts and tiny tables.
func TestParallelSmallTables(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		tab := randomTable(r, 9, 0.5, 0.5)
		if tab.Validate() != nil {
			continue
		}
		p, err := uncertain.Prepare(tab)
		if err != nil {
			t.Fatal(err)
		}
		params := exactParams(1 + r.Intn(3))
		serial, err := Distribution(p, params)
		if err != nil {
			t.Fatal(err)
		}
		params.Parallelism = 8
		par, err := Distribution(p, params)
		if err != nil {
			t.Fatal(err)
		}
		sameDist(t, "parallel-small", par.Dist, serial.Dist)
	}
}

// TestDPWorkers pins how Params.Parallelism resolves to a worker count: the
// auto-tuned crossover at autoParallelWork, serial at GOMAXPROCS 1 and for
// fewer than two units, and explicit counts capped only by the unit count.
func TestDPWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		procs, par, k, depth, units, want int
	}{
		{procs: 1, par: 0, k: 10, depth: 1000, units: 50, want: 1},
		{procs: 2, par: 0, k: 2, depth: autoParallelWork/2 - 1, units: 50, want: 1},
		{procs: 2, par: 0, k: 2, depth: autoParallelWork / 2, units: 50, want: 2},
		{procs: 2, par: 0, k: 1, depth: autoParallelWork, units: 50, want: 2},
		{procs: 4, par: 0, k: 5, depth: 200, units: 3, want: 3},
		{procs: 4, par: 0, k: 5, depth: 200, units: 1, want: 1},
		{procs: 4, par: 0, k: 5, depth: 0, units: 0, want: 1},
		{procs: 2, par: 1, k: 10, depth: 1000, units: 50, want: 1},
		{procs: 2, par: -3, k: 10, depth: 1000, units: 50, want: 1},
		{procs: 1, par: 2, k: 1, depth: 1, units: 50, want: 2},
		{procs: 2, par: 7, k: 1, depth: 1, units: 3, want: 3},
		{procs: 2, par: 7, k: 1, depth: 1, units: 1, want: 1},
	}
	for _, c := range cases {
		runtime.GOMAXPROCS(c.procs)
		if got := dpWorkers(Params{K: c.k, Parallelism: c.par}, c.units, c.depth); got != c.want {
			t.Errorf("GOMAXPROCS=%d %+v: %d workers, want %d", c.procs, c, got, c.want)
		}
	}
}
