package core

import (
	"fmt"
	"testing"

	"probtopk/internal/cartel"
	"probtopk/internal/synth"
	"probtopk/internal/uncertain"
)

// BenchmarkColdK10 is the dynamic program in isolation — the serving
// figure's cold k=10 point minus HTTP and JSON — on the synthetic Seed-1
// workload. The SoA+arena kernels hold a cold query at a few thousand
// allocations, and a regression here shows up long before the serving gate
// trips.
func BenchmarkColdK10(b *testing.B) {
	tab, err := synth.Generate(synth.Config{Seed: 1}.WithDefaults())
	if err != nil {
		b.Fatal(err)
	}
	p, err := uncertain.Prepare(tab)
	if err != nil {
		b.Fatal(err)
	}
	params := Params{K: 10, Threshold: 0.001, MaxLines: 200, TrackVectors: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distribution(p, params); err != nil {
			b.Fatal(err)
		}
	}
}

type dpTable struct {
	name string
	p    *uncertain.Prepared
}

// dpClassTables are one table of each family the topkd benchmark serves: a
// 200-tuple synthetic Figure-13a table and a 60-segment × 4-bin CarTel area.
func dpClassTables(b *testing.B) []dpTable {
	syn, err := synth.Generate(synth.Config{Seed: 1}.WithDefaults())
	if err != nil {
		b.Fatal(err)
	}
	car, err := cartel.GenerateArea(cartel.Config{Segments: 60, Seed: 101}).CongestionTable(4, 0)
	if err != nil {
		b.Fatal(err)
	}
	return []dpTable{{"synth", prep(b, syn)}, {"cartel", prep(b, car)}}
}

// BenchmarkDPClasses times one cold query per class of the topkd cold-mix
// workload (k ∈ {2, 5, 10} × {synth, CarTel}, pτ 3·10⁻³, 60 lines, vectors
// tracked) with the auto-tuned fan-out (par=0) and forced serial (par=1).
// It reports each class's auto-tuning work estimate (scan depth × k); at
// -cpu 2 every class but k=2 synth sits above autoParallelWork.
func BenchmarkDPClasses(b *testing.B) {
	tables := dpClassTables(b)
	for _, k := range []int{2, 5, 10} {
		for _, tb := range tables {
			for _, par := range []int{0, 1} {
				params := Params{K: k, Threshold: 3e-3, MaxLines: 60, TrackVectors: true, Parallelism: par}
				b.Run(fmt.Sprintf("k=%d/%s/par=%d", k, tb.name, par), func(b *testing.B) {
					var res *Result
					b.ReportAllocs()
					for b.Loop() {
						var err error
						if res, err = Distribution(tb.p, params); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(res.ScanDepth*k), "work")
					b.ReportMetric(float64(res.Cells), "cells")
				})
			}
		}
	}
}

// BenchmarkDPCrossover is the sweep autoParallelWork is read from: small
// queries (k 1–3, pτ 0.3 down to 3·10⁻³, both table families) run on one
// worker and on two. Sub-benchmarks are named by their work estimate, so at
// -cpu 2 the crossover is the smallest work from which par=2 keeps winning.
func BenchmarkDPCrossover(b *testing.B) {
	tables := dpClassTables(b)
	for _, k := range []int{1, 2, 3} {
		for _, ptau := range []float64{0.3, 0.1, 0.03, 3e-3} {
			for _, tb := range tables {
				for _, par := range []int{1, 2} {
					params := Params{K: k, Threshold: ptau, MaxLines: 60, TrackVectors: true, Parallelism: par}
					work := ScanDepth(tb.p, k, ptau) * k
					b.Run(fmt.Sprintf("work=%04d/k=%d/ptau=%g/%s/par=%d", work, k, ptau, tb.name, par), func(b *testing.B) {
						for b.Loop() {
							if _, err := Distribution(tb.p, params); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}
