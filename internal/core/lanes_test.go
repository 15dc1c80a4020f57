package core

import (
	"math"
	"math/rand"
	"testing"

	"stz/internal/grid"
	"stz/internal/huffman"
)

// spikyField is an outlier-heavy field: one point in five is scaled far
// past any quantization bin, so every class stream carries escapes.
func spikyField[T grid.Float](nz, ny, nx int, seed int64) *grid.Grid[T] {
	g := grid.New[T](nz, ny, nx)
	rng := rand.New(rand.NewSource(seed))
	for i := range g.Data {
		v := rng.NormFloat64()
		if rng.Intn(5) == 0 {
			v *= 1e12
		}
		g.Data[i] = T(v)
	}
	return g
}

// laneEdgeBoxes returns boxes whose finest-level class spans start or end
// on a lane edge of a grid with Fz divisible by 8 (class z extent then a
// multiple of huffman.NumLanes, so lane k starts at fine z k*Fz/4), plus
// single voxels on both sides of each edge.
func laneEdgeBoxes(fz, fy, fx int) []grid.Box {
	e := func(k int) int { return k * fz / huffman.NumLanes }
	boxes := []grid.Box{
		{Z0: e(1), Z1: e(2), Y1: fy, X1: fx},                             // exactly lane 1
		{Z0: e(1), Z1: e(3), Y1: fy, X1: fx},                             // exactly lanes 1-2
		{Z0: e(2), Z1: e(2) + 3, Y1: fy / 2, X1: fx / 2},                 // starts on an edge
		{Z0: e(1) - 3, Z1: e(1), Y0: fy / 3, Y1: fy, X0: fx / 3, X1: fx}, // ends on an edge
		{Z0: e(3), Z1: fz, Y0: 1, Y1: fy - 1, X0: 1, X1: fx - 1},         // inside the last lane
	}
	for k := 1; k < huffman.NumLanes; k++ {
		boxes = append(boxes,
			grid.Box{Z0: e(k), Z1: e(k) + 1, Y1: 1, X1: 1},
			grid.Box{Z0: e(k) - 1, Z1: e(k), Y0: fy - 1, Y1: fy, X0: fx - 1, X1: fx})
	}
	return boxes
}

// cornerBoxes returns the whole grid, the corner voxels and the corner
// cubes of side 5 (clipped).
func cornerBoxes(fz, fy, fx int) []grid.Box {
	return []grid.Box{
		{Z1: fz, Y1: fy, X1: fx},
		{Z1: 1, Y1: 1, X1: 1},
		{Z0: fz - 1, Z1: fz, Y0: fy - 1, Y1: fy, X0: fx - 1, X1: fx},
		grid.Box{Z1: 5, Y1: 5, X1: 5}.Clip(fz, fy, fx),
		{Z0: max(fz-5, 0), Z1: fz, Y0: max(fy-5, 0), Y1: fy, X0: max(fx-5, 0), X1: fx},
	}
}

// everyVoxel returns one single-voxel box per grid point.
func everyVoxel(fz, fy, fx int) []grid.Box {
	var boxes []grid.Box
	for z := 0; z < fz; z++ {
		for y := 0; y < fy; y++ {
			for x := 0; x < fx; x++ {
				boxes = append(boxes, grid.Box{Z0: z, Z1: z + 1, Y0: y, Y1: y + 1, X0: x, X1: x + 1})
			}
		}
	}
	return boxes
}

// laneEdgeHits reports whether some finest-level class span of b starts,
// and whether some ends, on an interior lane edge of its class stream.
func laneEdgeHits(b grid.Box, fz, fy, fx int) (start, end bool) {
	for _, off := range predictedClasses() {
		sb := grid.SubBox(b, off, 2, fz, fy, fx)
		if sb.Empty() {
			continue
		}
		bz, by, bx := classDims(off, fz, fy, fx)
		n := bz * by * bx
		lo, hi := ciSpan(sb, by, bx)
		for k := 1; k < huffman.NumLanes; k++ {
			edge := k * n / huffman.NumLanes
			start = start || lo == edge
			end = end || hi == edge
		}
	}
	return start, end
}

// checkRegionsMatchFull compresses g and checks that DecompressBox,
// DecompressBoxes and DecompressSliceZ reproduce the full decode bit for
// bit on every box and z-slice.
func checkRegionsMatchFull[T grid.Float](t *testing.T, g *grid.Grid[T], cfg Config, boxes []grid.Box) {
	t.Helper()
	enc, err := Compress(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader[T](enc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, b grid.Box, got *grid.Grid[T]) {
		t.Helper()
		want := full.ExtractBox(b)
		if got.Nz != want.Nz || got.Ny != want.Ny || got.Nx != want.Nx {
			t.Fatalf("%s %+v: dims %dx%dx%d, want %dx%dx%d", what, b,
				got.Nz, got.Ny, got.Nx, want.Nz, want.Ny, want.Nx)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s %+v: differs from the full decode at %d: %v vs %v",
					what, b, i, got.Data[i], want.Data[i])
			}
		}
	}
	for _, b := range boxes {
		got, _, err := r.DecompressBox(b)
		if err != nil {
			t.Fatalf("box %+v: %v", b, err)
		}
		same("box", b, got)
	}
	r.Workers = 4 // classes range-decode concurrently from here on
	outs, _, err := r.DecompressBoxes(boxes)
	if err != nil {
		t.Fatalf("boxes: %v", err)
	}
	for i, b := range boxes {
		same("multi-box", b, outs[i])
	}
	for z := 0; z < g.Nz; z++ {
		got, _, err := r.DecompressSliceZ(z)
		if err != nil {
			t.Fatalf("slice %d: %v", z, err)
		}
		same("slice", grid.Box{Z0: z, Z1: z + 1, Y1: g.Ny, X1: g.Nx}, got)
	}
}

// TestBoxLaneEdgesMatchFull checks region decodes against the full decode
// where lane seeking has edges: class spans on lane boundaries, corner and
// single-voxel boxes, classes with fewer codes than lanes, 2D grids, 2-4
// level streams in both element types, and outlier-heavy streams (whose
// classes decode a stream prefix).
func TestBoxLaneEdgesMatchFull(t *testing.T) {
	type tc struct {
		name     string
		dims     [3]int
		levels   int
		f32      bool
		outliers bool
	}
	cases := []tc{
		{"3-level f64", [3]int{32, 24, 20}, 3, false, false},
		{"3-level f32", [3]int{32, 20, 28}, 3, true, false},
		{"2-level f64", [3]int{16, 18, 20}, 2, false, false},
		{"2-level f32", [3]int{24, 16, 12}, 2, true, false},
		{"4-level f64", [3]int{32, 32, 32}, 4, false, false},
		{"4-level f32", [3]int{40, 24, 36}, 4, true, false},
		{"tiny f64", [3]int{3, 5, 7}, 3, false, false},
		{"tiny f32", [3]int{3, 5, 7}, 2, true, false},
		{"2D f64", [3]int{1, 40, 36}, 3, false, false},
		{"2D f32", [3]int{1, 6, 9}, 2, true, false},
		{"outliers 3-level f64", [3]int{24, 20, 16}, 3, false, true},
		{"outliers 4-level f32", [3]int{32, 16, 24}, 4, true, true},
		{"outliers 2-level f64", [3]int{16, 12, 16}, 2, false, true},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fz, fy, fx := c.dims[0], c.dims[1], c.dims[2]
			boxes := cornerBoxes(fz, fy, fx)
			if fz%8 == 0 {
				var starts, ends bool
				for _, b := range laneEdgeBoxes(fz, fy, fx) {
					s, e := laneEdgeHits(b, fz, fy, fx)
					starts, ends = starts || s, ends || e
					boxes = append(boxes, b)
				}
				if !starts || !ends {
					t.Fatalf("no class span starts (%v) or ends (%v) on a lane edge", starts, ends)
				}
			}
			if fz*fy*fx <= 128 {
				boxes = append(boxes, everyVoxel(fz, fy, fx)...)
			}
			cfg := DefaultConfig(1e-3)
			cfg.Levels = c.levels
			seed := int64(60 + i)
			if c.outliers {
				cfg.EB = 1e-6
			}
			switch {
			case c.f32 && c.outliers:
				checkRegionsMatchFull(t, spikyField[float32](fz, fy, fx, seed), cfg, boxes)
			case c.f32:
				checkRegionsMatchFull(t, testField[float32](fz, fy, fx, seed), cfg, boxes)
			case c.outliers:
				checkRegionsMatchFull(t, spikyField[float64](fz, fy, fx, seed), cfg, boxes)
			default:
				checkRegionsMatchFull(t, testField[float64](fz, fy, fx, seed), cfg, boxes)
			}
		})
	}
}

// TestBoxSkipsLanes checks the lane accounting of unchunked v3 streams: an
// interior box skips lanes at the finest level, a full decode none.
func TestBoxSkipsLanes(t *testing.T) {
	g := testField[float32](64, 64, 64, 70)
	enc, err := Compress(g, DefaultConfig(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := r.DecompressBox(grid.Box{Z0: 24, Z1: 40, Y0: 24, Y1: 40, X0: 24, X1: 40})
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedChunks[1] < 1 {
		t.Fatalf("interior box skipped no finest-level lanes (decoded %d)", st.DecodedChunks[1])
	}
	if got, want := st.DecodedChunks[1]+st.SkippedChunks[1], huffman.NumLanes*st.DecodedClasses[1]; got != want {
		t.Fatalf("%d lanes accounted, want %d", got, want)
	}
	_, st, err = r.DecompressStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedChunks != [3]int{} {
		t.Fatalf("full decode skipped lanes: %v", st.SkippedChunks)
	}
	for p := 0; p < 2; p++ {
		if want := huffman.NumLanes * st.DecodedClasses[p]; st.DecodedChunks[p] != want {
			t.Fatalf("level %d: full decode decoded %d lanes, want %d", p+2, st.DecodedChunks[p], want)
		}
	}
}

// FuzzBoxDecode feeds fuzzed archive bytes and a fuzzed box to the box
// decoder: it must return an error or a grid, never panic, and whenever
// the full decode succeeds too, the box must match it bit for bit.
func FuzzBoxDecode(f *testing.F) {
	seeds := [][]byte{}
	for _, cfg := range []Config{DefaultConfig(1e-3), chunkedConfig(1e-3, 64)} {
		enc, err := Compress(testField[float64](12, 10, 14, 80), cfg)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	spiky, err := Compress(spikyField[float32](10, 12, 8, 81), DefaultConfig(1e-6))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, spiky)
	for i, s := range seeds {
		f.Add(s, uint8(i), uint8(2*i), uint8(3), uint8(4), uint8(5), uint8(6))
	}
	f.Fuzz(func(t *testing.T, data []byte, z, y, x, dz, dy, dx uint8) {
		pick := func(lo, d uint8, n int) (int, int) {
			a := int(lo) % n
			return a, a + 1 + int(d)%(n-a)
		}
		box := func(h Header) (b grid.Box, ok bool) {
			if h.Fz == 0 || h.Fy == 0 || h.Fx == 0 {
				return b, false
			}
			b.Z0, b.Z1 = pick(z, dz, h.Fz)
			b.Y0, b.Y1 = pick(y, dy, h.Fy)
			b.X0, b.X1 = pick(x, dx, h.Fx)
			return b, true
		}
		if r, err := NewReader[float32](data); err == nil {
			if b, ok := box(r.Header()); ok {
				checkBoxAgainstFull(t, r, b)
			}
		}
		if r, err := NewReader[float64](data); err == nil {
			if b, ok := box(r.Header()); ok {
				checkBoxAgainstFull(t, r, b)
			}
		}
	})
}

// checkBoxAgainstFull decodes b from r and, when both that and the full
// decode succeed, fails unless they agree bit for bit. Decode errors are
// expected on fuzzed bytes.
func checkBoxAgainstFull[T grid.Float](t *testing.T, r *Reader[T], b grid.Box) {
	t.Helper()
	got, _, err := r.DecompressBox(b)
	if err != nil {
		return
	}
	full, err := r.Decompress()
	if err != nil {
		return
	}
	want := full.ExtractBox(b)
	for i := range want.Data {
		// Bits, not values: fuzzed outliers can be NaN.
		if math.Float64bits(float64(got.Data[i])) != math.Float64bits(float64(want.Data[i])) {
			t.Fatalf("box %+v differs from the full decode at %d: %v vs %v", b, i, got.Data[i], want.Data[i])
		}
	}
}
