package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"stz/internal/codec"
	"stz/internal/container"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/parallel"
	"stz/internal/quant"
	"stz/internal/scratch"
	"stz/internal/sz3"
)

// Header is the public view of an STZ stream's metadata.
type Header struct {
	DType         byte // 4 = float32, 8 = float64
	Fz, Fy, Fx    int
	Levels        int
	Predictor     Predictor
	Residual      ResidualCoder
	AdaptiveEB    bool
	EBRatio       float64
	EB            float64
	Radius        int32
	PartitionOnly bool
	// BaseCodec is the registry name of the base-level codec ("sz3"
	// unless Config.BaseCodec overrode it).
	BaseCodec string
}

// Stats is the per-stage timing breakdown of a decompression, matching the
// stage taxonomy of the paper's Table 4: level-1 SZ3 decode, then per
// predicted level the entropy-decode (dec.), prediction+dequantization
// (pre.) and reassembly (rec.) stages, plus class-stream decode accounting.
type Stats struct {
	L1SZ3          time.Duration
	LevelDecode    [3]time.Duration // index 0 = paper level 2, up to level 4
	LevelPredict   [3]time.Duration
	LevelRecon     [3]time.Duration
	DecodedClasses [3]int
	SkippedClasses [3]int
	// Seek-unit accounting of the decoded class streams: chunks for
	// streams written with Config.CodeChunk > 0, else the
	// huffman.NumLanes lanes of each v3 class stream (v1/v2 streams are
	// not counted). A full decompression decodes every unit; a box query
	// skips the units its region does not reach.
	DecodedChunks [3]int
	SkippedChunks [3]int
	Total         time.Duration
}

// Reader decodes STZ streams. The type parameter must match the stream's
// element type. Workers > 1 decodes the per-class streams in parallel.
type Reader[T grid.Float] struct {
	Workers int

	arc  *container.Archive
	hdr  header
	base codec.Codec
}

// NewReader parses and validates the stream framing and header.
func NewReader[T grid.Float](data []byte) (*Reader[T], error) {
	arc, err := container.Open(data)
	if err != nil {
		return nil, err
	}
	if arc.Count() < 2 {
		return nil, fmt.Errorf("core: stream has no payload sections")
	}
	hsec, err := arc.Section(0)
	if err != nil {
		return nil, err
	}
	hdr, err := unmarshalHeader(hsec)
	if err != nil {
		return nil, err
	}
	if hdr.DType != dtypeOf[T]() {
		return nil, fmt.Errorf("core: stream element type mismatch")
	}
	wantSecs := 2 + (hdr.Levels-1)*7
	if hdr.PartitionOnly {
		wantSecs = 9
	}
	if arc.Count() != wantSecs {
		return nil, fmt.Errorf("core: want %d sections, have %d", wantSecs, arc.Count())
	}
	base, err := codec.LookupID(hdr.BaseID)
	if err != nil {
		return nil, fmt.Errorf("core: base codec: %w", err)
	}
	return &Reader[T]{Workers: 1, arc: arc, hdr: hdr, base: base}, nil
}

// Header returns the stream metadata.
func (r *Reader[T]) Header() Header {
	h := r.hdr
	return Header{
		DType: h.DType, Fz: h.Fz, Fy: h.Fy, Fx: h.Fx, Levels: h.Levels,
		Predictor: h.Predictor, Residual: h.Residual, AdaptiveEB: h.AdaptiveEB,
		EBRatio: h.EBRatio, EB: h.EB, Radius: h.Radius, PartitionOnly: h.PartitionOnly,
		BaseCodec: r.base.Name(),
	}
}

func (r *Reader[T]) workers() int {
	if r.Workers < 1 {
		return 1
	}
	return r.Workers
}

// chainDims returns the dims of each coarse-chain grid: index 0 is the full
// grid, index t is parity class 0 of index t−1.
func (r *Reader[T]) chainDims() [][3]int {
	out := make([][3]int, r.hdr.Levels)
	out[0] = [3]int{r.hdr.Fz, r.hdr.Fy, r.hdr.Fx}
	for t := 1; t < r.hdr.Levels; t++ {
		p := out[t-1]
		out[t] = [3]int{grid.SubDim(p[0], 0, 2), grid.SubDim(p[1], 0, 2), grid.SubDim(p[2], 0, 2)}
	}
	return out
}

// classSection returns the section index of predicted-level p (0 = paper
// level 2) and class c (0..6).
func (r *Reader[T]) classSection(p, c int) int { return 2 + p*7 + c }

// levelEB mirrors Config.levelEB for the stored header.
func (r *Reader[T]) levelEB(lv int) float64 {
	if !r.hdr.AdaptiveEB {
		return r.hdr.EB
	}
	eb := r.hdr.EB
	for i := lv; i < r.hdr.Levels; i++ {
		eb /= r.hdr.EBRatio
	}
	return eb
}

// decodedClass is one predicted class's decoded payload. codes and
// outliers are scratch-arena leases owned by the class; callers release
// them (via release) once reconstruction no longer reads them.
type decodedClass[T grid.Float] struct {
	codes    []uint16 // ResidQuant path
	outliers []T
	diff     *grid.Grid[T] // ResidSZ3 path
	// from is the first decoded code of an unchunked stream: codes before
	// it (and past the requested range) were skipped and hold stale data.
	from int
	// Chunked-codes (random-access Huffman) metadata.
	chunkSize int
	bases     []uint32 // per-chunk outlier base
	// Decoded and total seek units: chunks, or the lanes of a v3 stream.
	decodedChunks int
	totalChunks   int
}

// release returns the leased decode buffers to the scratch arenas. Safe on
// the zero value and after a partial decode.
func (dc *decodedClass[T]) release() {
	scratch.U16.Release(dc.codes)
	scratch.ReleaseFloat(dc.outliers)
	dc.codes, dc.outliers = nil, nil
}

// decodeCodes entropy-decodes the codes [lo, hi) of one class code blob
// according to the stream's format version. v3 streams carry multi-lane
// Huffman payloads: only the lanes holding codes of the range decode, each
// from its start (huffman.DecodeLanesRange), so codes[from:hi] are valid
// and lanes counts the lanes decoded. v1/v2 streams are single-stream and
// decode whole (from 0, no lanes). Lanes decode on the calling goroutine —
// the seven parity classes already occupy the reader's worker pool, and a
// whole-stream range runs the register-resident single-thread interleave.
func (r *Reader[T]) decodeCodes(dst []uint16, blob []byte, alphabet, lo, hi int) (codes []uint16, from, lanes int, err error) {
	if r.hdr.Version >= 3 {
		return huffman.DecodeLanesRange(dst, blob, alphabet, lo, hi)
	}
	codes, err = huffman.DecodeInto(dst, blob, alphabet)
	return codes, 0, 0, err
}

// decodeClass entropy-decodes the class stream of predicted level p,
// class c. n is the class size in points; only codes within [ciLo, ciHi)
// are guaranteed decoded — with chunked streams (Config.CodeChunk), chunks
// entirely outside the range are skipped, and v3 streams skip the lanes
// past ciHi and, when the class has no outliers, before ciLo.
func (r *Reader[T]) decodeClass(p, c int, q quant.Quantizer, n, ciLo, ciHi int) (decodedClass[T], error) {
	sec, err := r.arc.Section(r.classSection(p, c))
	if err != nil {
		return decodedClass[T]{}, err
	}
	if r.hdr.Residual == ResidSZ3 {
		// Classes already occupy the reader's worker pool: decode the
		// residual sub-block (and its v2 lanes) serially.
		diff, err := sz3.DecompressWorkers[T](sec, 1)
		if err != nil {
			return decodedClass[T]{}, fmt.Errorf("core: class %d residual: %w", c, err)
		}
		return decodedClass[T]{diff: diff}, nil
	}
	if len(sec) < 4 {
		return decodedClass[T]{}, fmt.Errorf("core: class %d section truncated", c)
	}
	nOut := int(binary.LittleEndian.Uint32(sec))
	elem := 8
	if r.hdr.DType == 4 {
		elem = 4
	}
	if 4+nOut*elem > len(sec) {
		return decodedClass[T]{}, fmt.Errorf("core: class %d outliers truncated", c)
	}
	outliers := scratch.LeaseFloat[T](nOut)
	if err := readValues(outliers, sec[4:]); err != nil {
		scratch.ReleaseFloat(outliers)
		return decodedClass[T]{}, err
	}
	rest := sec[4+nOut*elem:]

	if r.hdr.CodeChunk <= 0 {
		// The outlier index of an escape is the number of escapes before
		// it, so a class with outliers decodes the prefix [0, ciHi) for the
		// outlier cursor to count them; one without starts at ciLo's lane.
		lo := ciLo
		if nOut > 0 {
			lo = 0
		}
		codesBuf := scratch.U16.Lease(n)
		codes, from, lanes, err := r.decodeCodes(codesBuf[:0], rest, q.Alphabet(), lo, ciHi)
		if err != nil {
			scratch.U16.Release(codesBuf)
			scratch.ReleaseFloat(outliers)
			return decodedClass[T]{}, fmt.Errorf("core: class %d codes: %w", c, err)
		}
		if cap(codes) != cap(codesBuf) {
			// DecodeInto outgrew the lease (corrupt count); hand the lease
			// back and keep the allocated slice.
			scratch.U16.Release(codesBuf)
		}
		dc := decodedClass[T]{codes: codes, outliers: outliers, from: from}
		if r.hdr.Version >= 3 {
			dc.decodedChunks, dc.totalChunks = lanes, huffman.NumLanes
		}
		return dc, nil
	}

	// Chunked codes: decode only the chunks intersecting [ciLo, ciHi).
	cs := r.hdr.CodeChunk
	if len(rest) < 4 {
		scratch.ReleaseFloat(outliers)
		return decodedClass[T]{}, fmt.Errorf("core: class %d chunk directory truncated", c)
	}
	// fail releases the partially assembled leases on any decode error.
	dc := decodedClass[T]{outliers: outliers, chunkSize: cs}
	fail := func(format string, args ...any) (decodedClass[T], error) {
		dc.release()
		return decodedClass[T]{}, fmt.Errorf(format, args...)
	}
	nChunks := int(binary.LittleEndian.Uint32(rest))
	wantChunks := (n + cs - 1) / cs
	if n == 0 {
		wantChunks = 0
	}
	if nChunks != wantChunks {
		return fail("core: class %d chunk count %d, want %d", c, nChunks, wantChunks)
	}
	dir := rest[4:]
	if len(dir) < 8*nChunks {
		return fail("core: class %d chunk directory truncated", c)
	}
	lens := make([]int, nChunks)
	bases := make([]uint32, nChunks)
	for i := 0; i < nChunks; i++ {
		lens[i] = int(binary.LittleEndian.Uint32(dir[8*i:]))
		bases[i] = binary.LittleEndian.Uint32(dir[8*i+4:])
	}
	payload := dir[8*nChunks:]
	offs := make([]int, nChunks+1)
	for i, l := range lens {
		if l < 0 {
			return fail("core: class %d bad chunk length", c)
		}
		offs[i+1] = offs[i] + l
	}
	if offs[nChunks] > len(payload) {
		return fail("core: class %d chunk payload truncated", c)
	}
	// Skipped (out-of-range) chunks keep zero codes, so the lease must be
	// zeroed — reconstruction never reads them, but zero keeps the buffer
	// contents defined exactly as the previous make([]uint16, n) did.
	dc.codes = scratch.U16.LeaseZeroed(n)
	dc.bases, dc.totalChunks = bases, nChunks
	// cs comes from the untrusted header; a chunk never holds more than n
	// codes, so cap the staging lease to keep a crafted CodeChunk from
	// forcing a huge allocation.
	chunkBuf := scratch.U16.Lease(min(cs, n))
	defer scratch.U16.Release(chunkBuf)
	for i := 0; i < nChunks; i++ {
		lo, hi := i*cs, (i+1)*cs
		if hi > n {
			hi = n
		}
		if hi <= ciLo || lo >= ciHi {
			continue
		}
		part, _, _, err := r.decodeCodes(chunkBuf[:0], payload[offs[i]:offs[i+1]], q.Alphabet(), 0, hi-lo)
		if err != nil {
			return fail("core: class %d chunk %d: %w", c, i, err)
		}
		if len(part) != hi-lo {
			return fail("core: class %d chunk %d size mismatch", c, i)
		}
		copy(dc.codes[lo:hi], part)
		dc.decodedChunks++
	}
	return dc, nil
}

// outlierCursor resolves the outlier-array index for escape codes during a
// monotone (row-major) walk over class indices. With chunked code streams
// it resynchronizes at chunk boundaries from the per-chunk outlier bases,
// so skipped (un-decoded) chunks never have to be scanned. Otherwise it
// counts escapes from pos, the first decoded code: 0 whenever the class
// has outliers, and for a class without them any escape is corrupt, so
// the count it starts from does not matter.
type outlierCursor struct {
	codes     []uint16
	pos       int
	zeros     int
	chunkSize int
	bases     []uint32
	curChunk  int
}

func newOutlierCursor[T grid.Float](dc decodedClass[T]) outlierCursor {
	return outlierCursor{
		codes: dc.codes, pos: dc.from, chunkSize: dc.chunkSize, bases: dc.bases, curChunk: -1,
	}
}

// take returns the outlier index for the escape at class index ci, which
// must be ≥ the first decoded code and any previously passed index.
func (o *outlierCursor) take(ci int) int {
	if o.chunkSize > 0 {
		if c := ci / o.chunkSize; c != o.curChunk {
			o.curChunk = c
			o.pos = c * o.chunkSize
			o.zeros = int(o.bases[c])
		}
	}
	for o.pos < ci {
		if o.codes[o.pos] == 0 {
			o.zeros++
		}
		o.pos++
	}
	idx := o.zeros
	o.zeros++ // the escape at ci itself
	o.pos = ci + 1
	return idx
}

// reconstructClass reconstructs the class points inside sb (class coords).
// When dst is non-nil, values are stored at dst[fineIdx] directly (the
// full-grid fast path); otherwise each value is delivered via
// write(fineIdx, k, j, i, value).
func (r *Reader[T]) reconstructClass(coarse *grid.Grid[T], off grid.Offset3,
	fz, fy, fx int, sb grid.Box, dc decodedClass[T], q quant.Quantizer,
	dst []T, write func(fi, k, j, i int, v T)) error {

	kind := r.hdr.Predictor
	if dst != nil {
		write = nil
	}
	if r.hdr.Residual == ResidSZ3 {
		bz, by, bx := classDims(off, fz, fy, fx)
		if dc.diff == nil || dc.diff.Nz != bz || dc.diff.Ny != by || dc.diff.Nx != bx {
			return fmt.Errorf("core: residual sub-block dims mismatch")
		}
		diff := dc.diff.Data
		if dst != nil {
			if sb.Empty() {
				return nil
			}
			preds := scratch.LeaseFloat[T](sb.X1 - sb.X0)
			classPredRows(coarse, off, fz, fy, fx, sb, kind,
				preds, func(k, j, ciRow, fineRow int, preds []T) {
					ci0 := ciRow + sb.X0
					fi0 := fineRow + 2*sb.X0 + off.X
					for t, pred := range preds {
						dst[fi0+2*t] = pred + diff[ci0+t]
					}
				})
			scratch.ReleaseFloat(preds)
			return nil
		}
		forEachClassPred(coarse, off, fz, fy, fx, sb, kind, func(ci, k, j, i, fi int, pred T) {
			write(fi, k, j, i, pred+diff[ci])
		})
		return nil
	}
	bz, by, bx := classDims(off, fz, fy, fx)
	if len(dc.codes) != bz*by*bx {
		return fmt.Errorf("core: class code count %d, want %d", len(dc.codes), bz*by*bx)
	}
	oc := newOutlierCursor(dc)
	var ferr error
	eb2 := 2 * q.EB
	radius := q.Radius
	codes := dc.codes
	if dst != nil {
		// Fused predict+dequantize: one traversal over the prediction rows,
		// writing reconstructions straight into the output grid.
		if sb.Empty() {
			return nil
		}
		outs := dc.outliers
		preds := scratch.LeaseFloat[T](sb.X1 - sb.X0)
		classPredRows(coarse, off, fz, fy, fx, sb, kind,
			preds, func(k, j, ciRow, fineRow int, preds []T) {
				if ferr != nil {
					return
				}
				ci0 := ciRow + sb.X0
				fi0 := fineRow + 2*sb.X0 + off.X
				for t, pred := range preds {
					code := codes[ci0+t]
					if code == 0 {
						oi := oc.take(ci0 + t)
						if oi >= len(outs) {
							ferr = fmt.Errorf("core: outlier stream exhausted")
							return
						}
						dst[fi0+2*t] = outs[oi]
						continue
					}
					dst[fi0+2*t] = T(float64(pred) + eb2*float64(int32(code)-radius))
				}
			})
		scratch.ReleaseFloat(preds)
		return ferr
	}
	forEachClassPred(coarse, off, fz, fy, fx, sb, kind, func(ci, k, j, i, fi int, pred T) {
		if ferr != nil {
			return
		}
		code := codes[ci]
		if code == 0 {
			oi := oc.take(ci)
			if oi >= len(dc.outliers) {
				ferr = fmt.Errorf("core: outlier stream exhausted")
				return
			}
			write(fi, k, j, i, dc.outliers[oi])
			return
		}
		write(fi, k, j, i, T(float64(pred)+eb2*float64(int32(code)-radius)))
	})
	return ferr
}

// decodeLevel1 decodes the deepest coarse grid (paper level 1).
func (r *Reader[T]) decodeLevel1() (*grid.Grid[T], error) {
	sec, err := r.arc.Section(1)
	if err != nil {
		return nil, err
	}
	g, err := codec.Decompress[T](r.base, sec, 1)
	if err != nil {
		return nil, fmt.Errorf("core: level 1: %w", err)
	}
	dims := r.chainDims()[r.hdr.Levels-1]
	if g.Nz != dims[0] || g.Ny != dims[1] || g.Nx != dims[2] {
		return nil, fmt.Errorf("core: level-1 dims mismatch")
	}
	return g, nil
}

// reconstructLevel reconstructs the full fine grid of predicted level p
// from the reconstructed coarse grid, updating stats. When final is false
// the result is an internal intermediate (the next level's coarse input)
// and is backed by a scratch lease that the caller releases once consumed;
// the final level's grid escapes to the caller and is heap-allocated.
func (r *Reader[T]) reconstructLevel(p int, coarse *grid.Grid[T], fdims [3]int, final bool, st *Stats) (*grid.Grid[T], error) {
	fz, fy, fx := fdims[0], fdims[1], fdims[2]
	lv := p + 2
	q := quant.Quantizer{EB: r.levelEB(lv), Radius: r.hdr.Radius}

	tRec := time.Now()
	var fine *grid.Grid[T]
	if final {
		fine = grid.New[T](fz, fy, fx)
	} else {
		// Fully overwritten: class 0 by InsertStride, every other parity
		// class by its reconstruction below.
		fine = &grid.Grid[T]{Data: scratch.LeaseFloat[T](fz * fy * fx), Nz: fz, Ny: fy, Nx: fx}
	}
	fine.InsertStride(coarse, grid.Offset3{}, 2)
	st.LevelRecon[p] += time.Since(tRec)

	classes := predictedClasses()
	dcs := make([]decodedClass[T], len(classes))
	errs := make([]error, len(classes))
	defer func() {
		for i := range dcs {
			dcs[i].release()
		}
	}()

	tDec := time.Now()
	parallel.For(len(classes), r.workers(), func(c int) {
		bz, by, bx := classDims(classes[c], fz, fy, fx)
		n := bz * by * bx
		dcs[c], errs[c] = r.decodeClass(p, c, q, n, 0, n)
	})
	st.LevelDecode[p] += time.Since(tDec)
	st.DecodedClasses[p] += len(classes)
	for c := range classes {
		st.DecodedChunks[p] += dcs[c].decodedChunks
		if errs[c] != nil {
			if !final {
				scratch.ReleaseFloat(fine.Data)
			}
			return nil, errs[c]
		}
	}

	tPre := time.Now()
	parallel.For(len(classes), r.workers(), func(c int) {
		off := classes[c]
		sb := fullClassBox(off, fz, fy, fx)
		errs[c] = r.reconstructClass(coarse, off, fz, fy, fx, sb, dcs[c], q, fine.Data, nil)
	})
	st.LevelPredict[p] += time.Since(tPre)
	for _, e := range errs {
		if e != nil {
			if !final {
				scratch.ReleaseFloat(fine.Data)
			}
			return nil, e
		}
	}
	return fine, nil
}

// Decompress reconstructs the full grid.
func (r *Reader[T]) Decompress() (*grid.Grid[T], error) {
	g, _, err := r.DecompressStats()
	return g, err
}

// DecompressStats reconstructs the full grid and reports stage timings.
func (r *Reader[T]) DecompressStats() (*grid.Grid[T], *Stats, error) {
	st := &Stats{}
	t0 := time.Now()
	defer func() { st.Total = time.Since(t0) }()
	if r.hdr.PartitionOnly {
		g, err := r.decompressPartitionOnly()
		return g, st, err
	}
	dims := r.chainDims()
	t1 := time.Now()
	cur, err := r.decodeLevel1()
	st.L1SZ3 = time.Since(t1)
	if err != nil {
		return nil, st, err
	}
	for p := 0; p <= r.hdr.Levels-2; p++ {
		prev := cur
		cur, err = r.reconstructLevel(p, cur, dims[r.hdr.Levels-2-p], p == r.hdr.Levels-2, st)
		// prev is internal (the level-1 decode or a leased intermediate);
		// its backing can be recycled whether or not this level failed.
		scratch.ReleaseFloat(prev.Data)
		if err != nil {
			return nil, st, err
		}
	}
	return cur, st, nil
}

// Progressive reconstructs the grid at hierarchy level lv (1 = coarsest).
// Level 1 of a 3-level stream is 1/64 of a 3D volume; level 2 is 1/8;
// level Levels is the full grid.
func (r *Reader[T]) Progressive(lv int) (*grid.Grid[T], error) {
	if lv < 1 || lv > r.hdr.Levels {
		return nil, fmt.Errorf("core: level %d out of range [1, %d]", lv, r.hdr.Levels)
	}
	if r.hdr.PartitionOnly {
		if lv == 1 {
			sec, err := r.arc.Section(2) // class 0 sub-block
			if err != nil {
				return nil, err
			}
			return codec.Decompress[T](r.base, sec, 1)
		}
		return r.decompressPartitionOnly()
	}
	st := &Stats{}
	cur, err := r.decodeLevel1()
	if err != nil {
		return nil, err
	}
	dims := r.chainDims()
	for p := 0; p <= lv-2; p++ {
		prev := cur
		cur, err = r.reconstructLevel(p, cur, dims[r.hdr.Levels-2-p], p == lv-2, st)
		scratch.ReleaseFloat(prev.Data)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func (r *Reader[T]) decompressPartitionOnly() (*grid.Grid[T], error) {
	var blocks [8]*grid.Grid[T]
	errs := make([]error, 8)
	parallel.For(8, r.workers(), func(i int) {
		sec, err := r.arc.Section(1 + i)
		if err != nil {
			errs[i] = err
			return
		}
		if len(sec) == 0 {
			blocks[i] = grid.New[T](0, 0, 0)
			return
		}
		blocks[i], errs[i] = codec.Decompress[T](r.base, sec, 1)
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return grid.AssembleStride2(blocks, r.hdr.Fz, r.hdr.Fy, r.hdr.Fx), nil
}

// Decode-time helper: Decompress parses and fully decodes data in one call.
func Decompress[T grid.Float](data []byte) (*grid.Grid[T], error) {
	r, err := NewReader[T](data)
	if err != nil {
		return nil, err
	}
	return r.Decompress()
}
