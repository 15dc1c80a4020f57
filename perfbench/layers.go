package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"stz/internal/bitio"
	"stz/internal/codec"
	"stz/internal/container"
	"stz/internal/core"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/scratch"
)

// The per-layer numbers are taken from outside each layer: the benchmark
// replays a layer's public call on the exact inputs the layer saw inside
// the pipeline, and guards the replay by requiring byte-identical output.

// replayReps is how often each replayed call is repeated; the median is
// kept.
const replayReps = 5

// replayL1 re-encodes level 1 of the STZ archive: the stride-4 sub-grid
// through the base codec at the level-1 bound. The result must equal
// archive section 1, or the replay is not the call core made.
func (f *field[T]) replayL1(rn *runner, reps int) (time.Duration, error) {
	arc, err := container.Open(f.stzRef)
	if err != nil {
		return 0, err
	}
	want, err := arc.Section(1)
	if err != nil {
		return 0, err
	}
	cfg := core.DefaultConfig(f.eb)
	l1cfg := codec.Config{
		EB:     cfg.EB / math.Pow(cfg.EBRatio, float64(cfg.Levels-1)),
		Radius: cfg.Radius,
	}
	sub := f.g.ExtractStride(grid.Offset3{}, 1<<(cfg.Levels-1))
	base := codec.MustLookup("sz3")
	var times []float64
	for i := 0; i < reps; i++ {
		var blob []byte
		d := rn.tr.timed("core.l1_encode", f.name, -1, rn.nextOp(), func() { blob, err = codec.Compress(base, sub, l1cfg) })
		if err != nil {
			return 0, fmt.Errorf("%s: level-1 replay: %w", f.name, err)
		}
		if !bytes.Equal(blob, want) {
			return 0, fmt.Errorf("%s: level-1 replay guard: the re-encoded level 1 differs from archive section 1", f.name)
		}
		times = append(times, ms(d))
	}
	return time.Duration(median(times) * 1e6), nil
}

// slabRec holds the replayed sz3 pipeline: the whole Encode and Decode
// calls and the per-slab calls they consist of (medians, summed over
// slabs).
type slabRec struct {
	encode, decode         time.Duration
	slabEncode, slabDecode time.Duration
}

// replaySlabs replays codec.Encode/Decode of archive, which must be an sz3
// archive of f, and each of its slabs at the chunk bounds of its header.
func (f *field[T]) replaySlabs(rn *runner, archive []byte, reps int) slabRec {
	var rec slabRec
	hdr, err := codec.ParseHeader(archive)
	if !rn.check(err == nil, "%s: sz3 header: %v", f.name, err) {
		return rec
	}
	c := codec.MustLookup(hdr.Codec)
	cfg := codec.Config{EB: hdr.EBRequested, Mode: hdr.Mode, Workers: 1, Chunks: hdr.Chunks()}
	var enc, dec []float64
	for i := 0; i < reps; i++ {
		var blob []byte
		d := rn.tr.timed("codec.encode_replay", f.name, -1, rn.nextOp(), func() { blob, err = codec.Encode(hdr.Codec, f.g, cfg) })
		rn.check(err == nil && bytes.Equal(blob, archive), "%s: sz3 Encode replay differs from the archive (%v)", f.name, err)
		enc = append(enc, ms(d))
		var g *grid.Grid[T]
		d = rn.tr.timed("codec.decode_replay", f.name, -1, rn.nextOp(), func() { g, err = codec.Decode[T](archive, 1) })
		_, ok := f.withinBound(g)
		rn.check(err == nil && ok, "%s: sz3 Decode replay out of bound (%v)", f.name, err)
		dec = append(dec, ms(d))
	}
	rec.encode = time.Duration(median(enc) * 1e6)
	rec.decode = time.Duration(median(dec) * 1e6)

	arc, err := container.Open(archive)
	if !rn.check(err == nil, "%s: sz3 container: %v", f.name, err) {
		return rec
	}
	plane := f.g.Ny * f.g.Nx
	slabCfg := codec.Config{EB: hdr.EBAbs, Workers: 1}
	for i := 0; i < hdr.Chunks(); i++ {
		lo, hi := hdr.ChunkBounds[i], hdr.ChunkBounds[i+1]
		slab, err := grid.FromData(f.g.Data[lo*plane:hi*plane], hi-lo, f.g.Ny, f.g.Nx)
		if !rn.check(err == nil, "%s: slab %d: %v", f.name, i, err) {
			continue
		}
		want, _ := arc.Section(i + 1)
		var se, sd []float64
		for r := 0; r < reps; r++ {
			var blob []byte
			d := rn.tr.timed("codec.slab_encode", f.name, -1, rn.nextOp(), func() { blob, err = codec.Compress(c, slab, slabCfg) })
			rn.check(err == nil && bytes.Equal(blob, want), "%s: slab %d replay differs from section %d (%v)", f.name, i, i+1, err)
			se = append(se, ms(d))
			var g *grid.Grid[T]
			d = rn.tr.timed("codec.slab_decode", f.name, -1, rn.nextOp(), func() { g, err = codec.Decompress[T](c, want, 1) })
			rn.check(err == nil && g != nil && g.Len() == slab.Len(), "%s: slab %d decode (%v)", f.name, i, err)
			sd = append(sd, ms(d))
		}
		rec.slabEncode += time.Duration(median(se) * 1e6)
		rec.slabDecode += time.Duration(median(sd) * 1e6)
	}
	return rec
}

// huffRec sums the Huffman replay over the class streams of STZ archives.
type huffRec struct {
	codes, longCodes int
	blobBytes        int
	tables           int
	decode, encode   time.Duration
	build            time.Duration
}

// replayHuffman parses the class streams of an STZ archive (FORMAT.md §3)
// and replays the entropy coder on each: DecodeLanesInto with one worker,
// EncodeLanes on the decoded codes, whose output must equal the stored
// blob, and BuildTable on the class histogram. It also reads each blob's
// code-length table (FORMAT.md §5) to count the codes longer than 10 bits.
func replayHuffman(rn *runner, name string, archive []byte, reps int) (huffRec, error) {
	var rec huffRec
	arc, err := container.Open(archive)
	if err != nil {
		return rec, err
	}
	hsec, err := arc.Section(0)
	if err != nil || len(hsec) < 44 {
		return rec, fmt.Errorf("%s: STZ header: %v", name, err)
	}
	version, dtype, residual := hsec[0], int(hsec[1]), hsec[5]
	radius := int(binary.LittleEndian.Uint32(hsec[36:]))
	codeChunk := binary.LittleEndian.Uint32(hsec[40:])
	if version != 3 || residual != 0 || codeChunk != 0 {
		return rec, fmt.Errorf("%s: want a v3 quantize+Huffman stream without code chunks", name)
	}
	alphabet := 2 * radius
	lengths := make([]uint8, alphabet)
	counts := make([]uint64, alphabet)
	for s := 2; s < arc.Count(); s++ {
		sec, err := arc.Section(s)
		if err != nil || len(sec) < 4 {
			return rec, fmt.Errorf("%s: class section %d: %v", name, s, err)
		}
		skip := 4 + int(binary.LittleEndian.Uint32(sec))*dtype
		if skip > len(sec) {
			return rec, fmt.Errorf("%s: class section %d outliers truncated", name, s)
		}
		blob := sec[skip:]
		if err := readLengths(blob, lengths); err != nil {
			return rec, fmt.Errorf("%s: class section %d length table: %w", name, s, err)
		}

		var codes []uint16
		var dec, enc, build []float64
		for r := 0; r < reps; r++ {
			var out []uint16
			d := rn.tr.timed("huffman.decode", name, -1, rn.nextOp(), func() { out, err = huffman.DecodeLanesInto(codes[:0], blob, alphabet, 1) })
			if err != nil {
				return rec, fmt.Errorf("%s: class section %d decode: %w", name, s, err)
			}
			codes = out
			dec = append(dec, float64(d))

			var again []byte
			d = rn.tr.timed("huffman.encode", name, -1, rn.nextOp(), func() { again = huffman.EncodeLanes(codes, alphabet) })
			if !bytes.Equal(again, blob) {
				return rec, fmt.Errorf("%s: Huffman replay guard: re-encoding class section %d differs from the stored blob", name, s)
			}
			enc = append(enc, float64(d))

			clear(counts)
			for _, c := range codes {
				counts[c]++
			}
			d = rn.tr.timed("huffman.table_build", name, -1, rn.nextOp(), func() { huffman.BuildTable(counts) })
			build = append(build, float64(d))
		}
		rec.decode += time.Duration(median(dec))
		rec.encode += time.Duration(median(enc))
		rec.build += time.Duration(median(build))
		rec.tables++
		rec.codes += len(codes)
		rec.blobBytes += len(blob)
		for _, c := range codes {
			if lengths[c] > 10 {
				rec.longCodes++
			}
		}
	}
	return rec, nil
}

func (h *huffRec) add(o huffRec) {
	h.codes += o.codes
	h.longCodes += o.longCodes
	h.blobBytes += o.blobBytes
	h.tables += o.tables
	h.decode += o.decode
	h.encode += o.encode
	h.build += o.build
}

// readLengths reads the code-length table at the head of a Huffman blob
// (FORMAT.md §5): the symbol count, the number of present symbols, then
// per present symbol a gamma-coded gap and a 5-bit length.
func readLengths(blob []byte, lengths []uint8) error {
	r := bitio.NewReader(blob)
	if _, err := r.ReadGamma(); err != nil {
		return err
	}
	distinct, err := r.ReadGamma()
	if err != nil {
		return err
	}
	clear(lengths)
	sym := -1
	for i := uint64(0); i < distinct; i++ {
		gap, err := r.ReadGamma()
		if err != nil {
			return err
		}
		l, err := r.ReadBits(5)
		if err != nil {
			return err
		}
		sym += int(gap) + 1
		if sym < 0 || sym >= len(lengths) {
			return fmt.Errorf("symbol %d outside the alphabet", sym)
		}
		lengths[sym] = uint8(l)
	}
	return nil
}

// openTime returns the median time of container.Open on archive.
func openTime(rn *runner, name string, archive []byte) (time.Duration, error) {
	const batch = 1000
	var times []float64
	for r := 0; r < replayReps; r++ {
		var err error
		d := rn.tr.timed("container.open", name, -1, rn.nextOp(), func() {
			for i := 0; i < batch && err == nil; i++ {
				_, err = container.Open(archive)
			}
		})
		if err != nil {
			return 0, fmt.Errorf("%s: container.Open: %w", name, err)
		}
		times = append(times, float64(d)/batch)
	}
	return time.Duration(median(times)), nil
}

// fieldLayers replays the core, huffman, codec and container layers on
// the workload's fields, their STZ archives and sz3Archives (one per
// field), and sets their metrics. The self time of STZ compression is the
// median traced core.compress span of each field minus its level-1 and
// Huffman replays.
func fieldLayers(rn *runner, m metricSet, fields []codecField, sz3Archives [][]byte) error {
	var l1, classEnc, open time.Duration
	var huff huffRec
	for _, f := range fields {
		d, err := f.replayL1(rn, replayReps)
		if err != nil {
			return err
		}
		l1 += d
		h, err := replayHuffman(rn, f.label(), f.stzArchive(), replayReps)
		if err != nil {
			return err
		}
		huff.add(h)
		compress := time.Duration(median(rn.tr.durs("core.compress", f.label())) * 1e6)
		classEnc += compress - d - h.encode
		o, err := openTime(rn, f.label(), f.stzArchive())
		if err != nil {
			return err
		}
		open += o
	}
	m.set("core.l1_encode_ms", ms(l1))
	m.set("core.class_encode_ms", ms(classEnc))
	m.set("huffman.decode_ns_per_code", float64(huff.decode)/float64(huff.codes))
	m.set("huffman.encode_ns_per_code", float64(huff.encode)/float64(huff.codes))
	m.set("huffman.table_build_us", float64(huff.build)/1e3/float64(huff.tables))
	m.set("huffman.bits_per_code", 8*float64(huff.blobBytes)/float64(huff.codes))
	m.set("huffman.long_code_pct", pct(float64(huff.longCodes), float64(huff.codes)))
	m.set("container.open_us", float64(open)/1e3/float64(len(fields)))

	var slabs slabRec
	for i, f := range fields {
		s := f.replaySlabs(rn, sz3Archives[i], replayReps)
		slabs.encode += s.encode
		slabs.decode += s.decode
		slabs.slabEncode += s.slabEncode
		slabs.slabDecode += s.slabDecode
	}
	m.set("codec.slab_encode_ms", ms(slabs.slabEncode))
	m.set("codec.slab_decode_ms", ms(slabs.slabDecode))
	whole := slabs.encode + slabs.decode
	m.set("codec.pipeline_overhead_pct", pct(float64(whole-slabs.slabEncode-slabs.slabDecode), float64(whole)))
	return nil
}

// decodeStageMetrics sets the core decode stage metrics from the median
// per-operation core.Stats.
func decodeStageMetrics(m metricSet, stats []core.Stats) {
	var l1, dec, pre, rec []float64
	var decoded, skipped int
	for _, s := range stats {
		l1 = append(l1, ms(s.L1SZ3))
		var d, p, r time.Duration
		for i := range s.LevelDecode {
			d += s.LevelDecode[i]
			p += s.LevelPredict[i]
			r += s.LevelRecon[i]
			decoded += s.DecodedClasses[i]
			skipped += s.SkippedClasses[i]
		}
		dec = append(dec, ms(d))
		pre = append(pre, ms(p))
		rec = append(rec, ms(r))
	}
	m.set("core.l1_decode_ms", median(l1))
	m.set("core.entropy_decode_ms", median(dec))
	m.set("core.predict_ms", median(pre))
	m.set("core.recon_ms", median(rec))
	m.set("core.box_class_skip_pct", pct(float64(skipped), float64(decoded+skipped)))
}

// speedup returns the round time with one worker over that with two, on
// rounds over fields (every output checked as usual).
func speedup(rn *runner, fields []codecField, rounds int) float64 {
	one := roundLatencies(codecRounds(rn, fields, rounds, 0, 1))
	two := roundLatencies(codecRounds(rn, fields, rounds, 0, 2))
	return median(one) / median(two)
}

// phaseStats is the process cost of one measured phase.
type phaseStats struct {
	allocBytes uint64
	gcPause    time.Duration
	heapPeak   uint64
	pool       scratch.Stats
}

// measurePhase runs fn while sampling the live heap, and returns the
// allocation, GC pause and scratch-pool deltas of the phase.
func measurePhase(fn func()) phaseStats {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pool0 := scratch.GlobalStats()

	var peak uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	wg.Wait()

	runtime.ReadMemStats(&after)
	pool1 := scratch.GlobalStats()
	return phaseStats{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		heapPeak:   peak,
		pool: scratch.Stats{
			Hits: pool1.Hits - pool0.Hits, Misses: pool1.Misses - pool0.Misses,
		},
	}
}

// set records the phase's runtime and scratch metrics over ops operations.
func (p phaseStats) set(m metricSet, ops int) {
	m.set("scratch.pool_hit_pct", 100*p.pool.HitRate())
	m.set("runtime.alloc_MB_per_op", float64(p.allocBytes)/1e6/float64(max(ops, 1)))
	m.set("runtime.gc_pause_ms", ms(p.gcPause))
	m.set("runtime.heap_peak_MB", float64(p.heapPeak)/1e6)
}

// overhead returns how much slower the traced per-op time is than the
// untraced one, in percent.
func overhead(untraced, traced float64) float64 {
	return pct(traced-untraced, untraced)
}
