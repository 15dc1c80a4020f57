package main

import (
	"bytes"
	"time"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/grid"
	"stz/internal/metrics"
	"stz/internal/quant"
)

// field is one generated input grid with the relative bound it is
// compressed at. The archives of its first round become the references
// that every later round must reproduce byte for byte.
type field[T grid.Float] struct {
	name string
	g    *grid.Grid[T]
	rel  float64
	eb   float64 // absolute bound: rel × value range

	stzRef     []byte
	sz3Ref     map[int][]byte // keyed by worker count (it sets the chunking)
	previewRef *grid.Grid[T]
	psnrDB     float64
}

func newField[T grid.Float](name string, g *grid.Grid[T], rel float64) *field[T] {
	mn, mx := g.Range()
	return &field[T]{
		name: name, g: g, rel: rel,
		eb:     quant.AbsoluteBound(rel, float64(mn), float64(mx)),
		sz3Ref: map[int][]byte{},
	}
}

// codecField is the element-type-free view of a field the workloads use.
type codecField interface {
	label() string
	rawBytes() int
	// round compresses and decompresses the field once with STZ and sz3
	// and takes one level-2 preview, checking every output.
	round(rn *runner, parent int, op int64, workers int) roundRec
	stzArchive() []byte
	sz3Archive() []byte
	psnr() float64
	// replayL1 re-encodes level 1 of the STZ archive outside core.
	replayL1(rn *runner, reps int) (time.Duration, error)
	// replaySlabs re-encodes and decodes every slab of an sz3 archive of
	// this field outside the chunk pipeline.
	replaySlabs(rn *runner, archive []byte, reps int) slabRec
}

// roundRec is the timing of one round: every call of the round, summed
// over the fields it covered.
type roundRec struct {
	raw                    int
	stzC, stzD, sz3C, sz3D time.Duration
	preview                time.Duration
	previews               int
	stats                  core.Stats
}

func (r roundRec) total() time.Duration { return r.stzC + r.stzD + r.sz3C + r.sz3D + r.preview }

func (r *roundRec) add(o roundRec) {
	r.raw += o.raw
	r.stzC += o.stzC
	r.stzD += o.stzD
	r.sz3C += o.sz3C
	r.sz3D += o.sz3D
	r.preview += o.preview
	r.previews += o.previews
	addStats(&r.stats, o.stats)
}

func addStats(dst *core.Stats, s core.Stats) {
	dst.L1SZ3 += s.L1SZ3
	for i := range s.LevelDecode {
		dst.LevelDecode[i] += s.LevelDecode[i]
		dst.LevelPredict[i] += s.LevelPredict[i]
		dst.LevelRecon[i] += s.LevelRecon[i]
		dst.DecodedClasses[i] += s.DecodedClasses[i]
		dst.SkippedClasses[i] += s.SkippedClasses[i]
	}
	dst.Total += s.Total
}

func (f *field[T]) label() string      { return f.name }
func (f *field[T]) rawBytes() int      { return f.g.Len() * elemSize[T]() }
func (f *field[T]) stzArchive() []byte { return f.stzRef }
func (f *field[T]) sz3Archive() []byte { return f.sz3Ref[1] }
func (f *field[T]) psnr() float64      { return f.psnrDB }

func elemSize[T grid.Float]() int {
	var v T
	if _, ok := any(v).(float32); ok {
		return 4
	}
	return 8
}

// sameArchive checks blob against the reference kept in *ref, adopting
// blob as the reference the first time.
func sameArchive(ref *[]byte, blob []byte) bool {
	if *ref == nil {
		*ref = blob
		return true
	}
	return bytes.Equal(*ref, blob)
}

// withinBound returns the distortion of recon against f and whether every
// point stays within f's absolute bound.
func (f *field[T]) withinBound(recon *grid.Grid[T]) (metrics.Distortion, bool) {
	if recon == nil {
		return metrics.Distortion{}, false
	}
	d, err := metrics.Compare(f.g, recon)
	return d, err == nil && d.MaxErr <= f.eb
}

func (f *field[T]) round(rn *runner, parent int, op int64, workers int) roundRec {
	rec := roundRec{raw: f.rawBytes()}
	tr := rn.tr

	cfg := core.DefaultConfig(f.eb)
	cfg.Workers = workers
	var stz []byte
	var err error
	rec.stzC = tr.timed("core.compress", f.name, parent, op, func() { stz, err = core.Compress(f.g, cfg) })
	rn.check(err == nil && sameArchive(&f.stzRef, stz), "%s: STZ archive differs from the first one (%v)", f.name, err)

	var out *grid.Grid[T]
	var st *core.Stats
	var rd *core.Reader[T]
	rec.stzD = tr.timed("core.decompress", f.name, parent, op, func() {
		if rd, err = core.NewReader[T](stz); err != nil {
			return
		}
		rd.Workers = workers
		out, st, err = rd.DecompressStats()
	})
	d, ok := f.withinBound(out)
	rn.check(err == nil && ok, "%s: STZ decode max error %g over bound %g (%v)", f.name, d.MaxErr, f.eb, err)
	if st != nil {
		rec.stats = *st
	}
	f.psnrDB = d.PSNR

	if rd != nil {
		var p *grid.Grid[T]
		rec.preview = tr.timed("core.preview", f.name, parent, op, func() { p, err = rd.Progressive(2) })
		rec.previews = 1
		if f.previewRef == nil && err == nil {
			f.previewRef = p
		}
		rn.check(err == nil && sameGrid(p, f.previewRef), "%s: level-2 preview differs from the reference (%v)", f.name, err)
	}

	var sz []byte
	scfg := codec.Config{EB: f.rel, Mode: codec.ModeRel, Workers: workers}
	rec.sz3C = tr.timed("codec.encode", f.name, parent, op, func() { sz, err = codec.Encode("sz3", f.g, scfg) })
	ref := f.sz3Ref[workers]
	rn.check(err == nil && sameArchive(&ref, sz), "%s: sz3 archive differs from the first one (%v)", f.name, err)
	f.sz3Ref[workers] = ref

	var sout *grid.Grid[T]
	rec.sz3D = tr.timed("codec.decode", f.name, parent, op, func() { sout, err = codec.Decode[T](sz, workers) })
	d, ok = f.withinBound(sout)
	rn.check(err == nil && ok, "%s: sz3 decode max error %g over bound %g (%v)", f.name, d.MaxErr, f.eb, err)
	return rec
}

// sameGrid reports whether a and b hold bit-identical values.
func sameGrid[T grid.Float](a, b *grid.Grid[T]) bool {
	if a == nil || b == nil || a.Nz != b.Nz || a.Ny != b.Ny || a.Nx != b.Nx {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

// codecRounds runs rounds over fields until n rounds are done or, when
// d > 0, until d has elapsed. Each round covers every field once.
func codecRounds(rn *runner, fields []codecField, n int, d time.Duration, workers int) []roundRec {
	var recs []roundRec
	start := time.Now()
	for i := 0; (n <= 0 || i < n) && (d <= 0 || time.Since(start) < d); i++ {
		op := rn.nextOp()
		root := rn.tr.begin("bench.round", "", -1, op)
		var rec roundRec
		for _, f := range fields {
			rec.add(f.round(rn, root, op, workers))
		}
		rn.tr.finish(root)
		recs = append(recs, rec)
	}
	return recs
}

// probed runs loop between the two halves of the codec probe, which
// measures the codec metrics of access and serve: codec rounds on the
// workload's own field for a sixth of the window before the loop and a
// sixth after it, so that the probe samples the same stretch of time as
// the loop. The loop gets the other two thirds (opts.mainWindow).
func probed(rn *runner, fields []codecField, o opts, loop func()) []roundRec {
	recs := codecRounds(rn, fields, 0, o.window()/6, 1)
	loop()
	return append(recs, codecRounds(rn, fields, 0, o.window()/6, 1)...)
}

// codecMetrics fills the throughput, ratio and quality metrics from
// rounds over fields.
func codecMetrics(m metricSet, fields []codecField, recs []roundRec) {
	var stzC, stzD, sz3C, sz3D, prev []float64
	for _, r := range recs {
		mb := float64(r.raw) / 1e6
		stzC = append(stzC, mb/r.stzC.Seconds())
		stzD = append(stzD, mb/r.stzD.Seconds())
		sz3C = append(sz3C, mb/r.sz3C.Seconds())
		sz3D = append(sz3D, mb/r.sz3D.Seconds())
		if r.previews > 0 {
			prev = append(prev, ms(r.preview)/float64(r.previews))
		}
	}
	m.set("stz_compress_MBps", median(stzC))
	m.set("stz_decompress_MBps", median(stzD))
	m.set("sz3_compress_MBps", median(sz3C))
	m.set("sz3_decompress_MBps", median(sz3D))
	m.set("preview_ms", median(prev))
	var raw, stzB, sz3B int
	var psnr []float64
	for _, f := range fields {
		raw += f.rawBytes()
		stzB += len(f.stzArchive())
		sz3B += len(f.sz3Archive())
		psnr = append(psnr, f.psnr())
	}
	m.set("stz_ratio", float64(raw)/float64(stzB))
	m.set("sz3_ratio", float64(raw)/float64(sz3B))
	m.set("stz_psnr_db", mean(psnr))
}

// roundLatencies returns each round's summed call time in milliseconds.
func roundLatencies(recs []roundRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.total())
	}
	return out
}
