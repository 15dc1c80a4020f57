package main

import (
	"time"

	"stz/internal/core"
	"stz/internal/datasets"
)

// bulk: full-volume compress and decompress with STZ (core.DefaultConfig)
// and sz3 (codec.Encode/Decode), one worker each, on Nyx f32 at relative
// bound 1e-4 and WarpX f64 at 1e-3 — the paper's speed and ratio claim.
// One round compresses, decompresses and previews both fields with both
// codecs; the workload repeats rounds until the window has elapsed.

// seeds derives the generator seeds of a run's inputs from --seed.
func seeds(seed int64) (nyx, warpx int64) { return seed, seed + 1_000_003 }

func bulkFields(o opts) []codecField {
	nyxSeed, warpxSeed := seeds(o.seed)
	n := o.size
	return []codecField{
		newField("nyx", datasets.Nyx(n, n, n, nyxSeed), 1e-4),
		newField("warpx", datasets.WarpX(n, n, n, warpxSeed), 1e-3),
	}
}

func runBulk(rn *runner, o opts) (metricSet, error) {
	var fields []codecField
	// Set-up generates the fields and runs one round, which builds the
	// reference archives and warms the scratch pools.
	setup, err := setupReps(o.setupReps(), func() (func(), error) {
		fields = bulkFields(o)
		codecRounds(rn, fields, 1, 0, 1)
		return func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	m := metricSet{}
	if !o.trace {
		recs := codecRounds(rn, fields, 0, o.window(), 1)
		codecMetrics(m, fields, recs)
		lat := roundLatencies(recs)
		m.set("setup_s", setup)
		m.set("p50_ms", median(lat))
		return m, nil
	}

	base := codecRounds(rn, fields, 0, o.window(), 1)
	rn.tr.on = true
	var recs []roundRec
	ph := measurePhase(func() { recs = codecRounds(rn, fields, 0, o.window(), 1) })
	ph.set(m, len(recs))
	m.set("p99_ms", quantile(roundLatencies(recs), 0.99))
	m.set("trace.overhead_pct", overhead(median(roundLatencies(base)), median(roundLatencies(recs))))
	stats := make([]core.Stats, len(recs))
	for i, r := range recs {
		stats[i] = r.stats
	}
	decodeStageMetrics(m, stats)
	// bulk issues no box reads and has no request schedule: the box,
	// serving and load-generator metrics measure nothing here.
	noServe(m)
	m.set("loadgen.lag_p99_ms", closedLoopLag(rn.tr, "bench.round"))
	m.set("loadgen.repeat_pct", 0)

	sz3 := make([][]byte, len(fields))
	for i, f := range fields {
		sz3[i] = f.sz3Archive()
	}
	if err := fieldLayers(rn, m, fields, sz3); err != nil {
		return nil, err
	}
	m.set("parallel.speedup", speedup(rn, fields, 2))
	return m, nil
}

// closedLoopLag returns the p99 gap, in milliseconds, between the end of
// one root span named name and the start of the next: the time a closed
// loop spends between calls on its own work (output checks, bookkeeping).
func closedLoopLag(tr *tracer, name string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var gaps []float64
	prevEnd := int64(-1)
	for _, s := range tr.spans {
		if s.Name != name {
			continue
		}
		if prevEnd >= 0 && s.Start >= prevEnd {
			gaps = append(gaps, ms(time.Duration(s.Start-prevEnd)))
		}
		prevEnd = s.End
	}
	return quantile(gaps, 0.99)
}
