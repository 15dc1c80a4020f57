package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/grid"
)

// access: one closed-loop caller — an analysis script that waits for each
// reply — reading a resident STZ archive of Nyx f32 at relative bound
// 1e-3, opened once with core.NewReader and one worker. It asks for a
// seeded stream of fresh, never repeated 16³ windows through
// Reader.DecompressBox, and every previewEvery-th query also for a level-2
// preview through Reader.Progressive(2): the paper's two streaming
// features, with no compress work and no cache on the path.

const (
	boxEdge      = 16
	previewEvery = 16
	// probeRounds is how many codec rounds a traced access or serve run
	// adds for the spans of the core layers.
	probeRounds = 4
)

type accessState struct {
	f       *field[float32]
	rd      *core.Reader[float32]
	full    *grid.Grid[float32] // full decode made during set-up
	windows *windowStream
}

// windowStream yields seeded boxEdge³ windows of an n³ grid, never the
// same origin twice.
type windowStream struct {
	rng  *rand.Rand
	n    int
	seen map[[3]int]bool
}

func newWindowStream(seed int64, n int) *windowStream {
	return &windowStream{rng: rand.New(rand.NewSource(seed)), n: n, seen: map[[3]int]bool{}}
}

func (w *windowStream) next() grid.Box {
	for {
		o := [3]int{w.rng.Intn(w.n - boxEdge + 1), w.rng.Intn(w.n - boxEdge + 1), w.rng.Intn(w.n - boxEdge + 1)}
		if !w.seen[o] {
			w.seen[o] = true
			return boxAt(o)
		}
	}
}

func boxAt(o [3]int) grid.Box {
	return grid.Box{Z0: o[0], Z1: o[0] + boxEdge, Y0: o[1], Y1: o[1] + boxEdge, X0: o[2], X1: o[2] + boxEdge}
}

func setupAccess(rn *runner, o opts) (*accessState, error) {
	nyxSeed, _ := seeds(o.seed)
	n := o.size
	f := newField("nyx", datasets.Nyx(n, n, n, nyxSeed), 1e-3)
	cfg := core.DefaultConfig(f.eb)
	cfg.Workers = 1
	arc, err := core.Compress(f.g, cfg)
	if err != nil {
		return nil, err
	}
	f.stzRef = arc // the probe's STZ rounds must reproduce the resident archive
	rd, err := core.NewReader[float32](arc)
	if err != nil {
		return nil, err
	}
	rd.Workers = 1
	full, err := rd.Decompress()
	if err != nil {
		return nil, err
	}
	if _, ok := f.withinBound(full); !ok {
		return nil, fmt.Errorf("set-up decode of the access archive exceeds its bound")
	}
	preview, err := rd.Progressive(2)
	if err != nil {
		return nil, err
	}
	f.previewRef = preview // the level-2 reference of the queries and the probe
	st := &accessState{f: f, rd: rd, full: full, windows: newWindowStream(nyxSeed^0x5eed, n)}
	// Warm the scratch pools with a few queries off the measured stream.
	for i := 0; i < 4; i++ {
		if _, _, err := rd.DecompressBox(st.windows.next()); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// accessRec is the outcome of one query window.
type accessRec struct {
	box      []float64 // ms per box query
	previews []float64 // ms per preview
	stats    []core.Stats
	repeats  int
}

// query runs the closed loop for d and checks every reply.
func (st *accessState) query(rn *runner, d time.Duration) accessRec {
	var rec accessRec
	seen := map[grid.Box]bool{}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		b := st.windows.next()
		if seen[b] {
			rec.repeats++
		}
		seen[b] = true
		op := rn.nextOp()
		root := rn.tr.begin("access.query", "", -1, op)
		var out *grid.Grid[float32]
		var cst *core.Stats
		var err error
		dt := rn.tr.timed("core.box", "", root, op, func() { out, cst, err = st.rd.DecompressBox(b) })
		rec.box = append(rec.box, ms(dt))
		rn.check(err == nil && sameGrid(out, st.full.ExtractBox(b)), "box %v differs from the set-up full decode (%v)", b, err)
		if cst != nil {
			rec.stats = append(rec.stats, *cst)
		}
		if i%previewEvery == previewEvery-1 {
			var p *grid.Grid[float32]
			dt := rn.tr.timed("core.preview", "", root, op, func() { p, err = st.rd.Progressive(2) })
			rec.previews = append(rec.previews, ms(dt))
			rn.check(err == nil && sameGrid(p, st.f.previewRef), "level-2 preview differs from the set-up reference (%v)", err)
		}
		rn.tr.finish(root)
	}
	return rec
}

func runAccess(rn *runner, o opts) (metricSet, error) {
	var st *accessState
	setup, err := setupReps(o.setupReps(), func() (func(), error) {
		var err error
		st, err = setupAccess(rn, o)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	fields := []codecField{st.f}
	m := metricSet{}
	if !o.trace {
		var rec accessRec
		probe := probed(rn, fields, o, func() {
			runtime.GC()
			rec = st.query(rn, o.mainWindow())
		})
		codecMetrics(m, fields, probe)
		m.set("setup_s", setup)
		m.set("preview_ms", median(rec.previews))
		m.set("p50_ms", median(rec.box))
		return m, nil
	}

	base := st.query(rn, o.mainWindow())
	rn.tr.on = true
	codecRounds(rn, fields, probeRounds, 0, 1) // traced compress spans for the core layers
	var rec accessRec
	ph := measurePhase(func() { rec = st.query(rn, o.mainWindow()) })
	ph.set(m, len(rec.box))
	m.set("p99_ms", quantile(rec.box, 0.99))
	m.set("trace.overhead_pct", overhead(median(base.box), median(rec.box)))
	decodeStageMetrics(m, rec.stats)
	noServe(m)
	m.set("loadgen.lag_p99_ms", closedLoopLag(rn.tr, "access.query"))
	m.set("loadgen.repeat_pct", pct(float64(rec.repeats), float64(len(rec.box))))
	if err := fieldLayers(rn, m, fields, [][]byte{st.f.sz3Archive()}); err != nil {
		return nil, err
	}
	m.set("parallel.speedup", speedup(rn, fields, 2))
	return m, nil
}
