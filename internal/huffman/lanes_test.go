package huffman

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// laneRoundTrip checks the v2 payload against the v1 reference path: both
// must reproduce the input, on the interleaved and the parallel decoders.
func laneRoundTrip(t *testing.T, codes []uint16, alphabet int) []byte {
	t.Helper()
	ref, err := Decode(Encode(codes, alphabet), alphabet)
	if err != nil {
		t.Fatalf("v1 reference decode: %v", err)
	}
	enc := EncodeLanes(codes, alphabet)
	for _, workers := range []int{1, 4} {
		dec, err := DecodeLanes(enc, alphabet, workers)
		if err != nil {
			t.Fatalf("lanes decode (workers=%d): %v", workers, err)
		}
		if len(dec) != len(codes) {
			t.Fatalf("workers=%d: length %d want %d", workers, len(dec), len(codes))
		}
		for i := range codes {
			if dec[i] != codes[i] || dec[i] != ref[i] {
				t.Fatalf("workers=%d: symbol %d: got %d want %d (v1 ref %d)",
					workers, i, dec[i], codes[i], ref[i])
			}
		}
	}
	return enc
}

func TestLanesEmpty(t *testing.T) {
	laneRoundTrip(t, nil, 16)
}

func TestLanesSmall(t *testing.T) {
	// Fewer symbols than lanes: some lanes are empty.
	for n := 1; n < 12; n++ {
		codes := make([]uint16, n)
		for i := range codes {
			codes[i] = uint16(i % 5)
		}
		laneRoundTrip(t, codes, 8)
	}
}

func TestLanesSingleSymbol(t *testing.T) {
	codes := make([]uint16, 1000)
	for i := range codes {
		codes[i] = 7
	}
	enc := laneRoundTrip(t, codes, 16)
	if len(enc) > 220 {
		t.Fatalf("single-symbol lane stream too large: %d bytes", len(enc))
	}
}

func TestLanesSkewedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	codes := make([]uint16, 50000)
	for i := range codes {
		v := 512 + int(rng.NormFloat64()*3)
		if v < 0 {
			v = 0
		}
		if v > 1023 {
			v = 1023
		}
		codes[i] = uint16(v)
	}
	v1 := Encode(codes, 1024)
	v2 := laneRoundTrip(t, codes, 1024)
	// The lane layout costs only the directory and up to 4 bytes of lane
	// padding over v1.
	if len(v2) > len(v1)+32 {
		t.Fatalf("lane overhead too large: v1=%d v2=%d", len(v1), len(v2))
	}
}

func TestLanesLargeParallel(t *testing.T) {
	// Above laneParallelMin so the parallel.For path actually runs.
	rng := rand.New(rand.NewSource(5))
	codes := make([]uint16, laneParallelMin+1234)
	for i := range codes {
		codes[i] = uint16(rng.Intn(300))
	}
	laneRoundTrip(t, codes, 512)
}

func TestLanesDeepCodes(t *testing.T) {
	// Fibonacci counts force near-maximal code depth, exercising the
	// long-code limit search inside the interleaved fast loop.
	const n = 40
	var codes []uint16
	a, b := 1, 1
	for sym := 0; sym < n; sym++ {
		for r := 0; r < a%61; r++ {
			codes = append(codes, uint16(sym))
		}
		a, b = b, a+b
	}
	laneRoundTrip(t, codes, n)
}

func TestLanesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codes := make([]uint16, 5000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(256))
	}
	if !bytes.Equal(EncodeLanes(codes, 256), EncodeLanes(codes, 256)) {
		t.Fatal("lane encoding is not deterministic")
	}
}

func TestLanesCorruptAndTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	codes := make([]uint16, 4000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(100))
	}
	enc := EncodeLanes(codes, 100)
	for cut := 0; cut < len(enc); cut += 5 {
		if _, err := DecodeLanes(enc[:cut], 100, 1); err == nil && cut < len(enc)/2 {
			t.Fatalf("truncation at %d of %d not detected", cut, len(enc))
		}
	}
	for i := 0; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		// Must not panic; error or wrong data are both acceptable.
		_, _ = DecodeLanes(mut, 100, 1)
		_, _ = DecodeLanes(mut, 100, 4)
	}
}

// FuzzHuffmanLanes differentially fuzzes the v2 lane codec against the v1
// reference: both paths must reproduce the input symbols, and the
// interleaved and parallel lane decoders must agree.
func FuzzHuffmanLanes(f *testing.F) {
	f.Add([]byte{}, uint16(4))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint16(9))
	f.Add(bytes.Repeat([]byte{3}, 300), uint16(16))
	f.Add([]byte{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}, uint16(255))
	f.Fuzz(func(t *testing.T, raw []byte, span uint16) {
		alphabet := int(span)%2048 + 1
		codes := make([]uint16, len(raw))
		for i, b := range raw {
			codes[i] = uint16(int(b) * alphabet / 256)
		}
		ref, err := Decode(Encode(codes, alphabet), alphabet)
		if err != nil {
			t.Fatalf("v1 round trip: %v", err)
		}
		enc := EncodeLanes(codes, alphabet)
		for _, workers := range []int{1, 4} {
			dec, err := DecodeLanes(enc, alphabet, workers)
			if err != nil {
				t.Fatalf("lanes decode (workers=%d): %v", workers, err)
			}
			if len(dec) != len(ref) {
				t.Fatalf("workers=%d: length %d want %d", workers, len(dec), len(ref))
			}
			for i := range ref {
				if dec[i] != ref[i] {
					t.Fatalf("workers=%d: symbol %d: lanes %d, v1 reference %d",
						workers, i, dec[i], ref[i])
				}
			}
		}
	})
}

// FuzzDecodeLanes throws arbitrary bytes at the lane decoder: it must
// error or succeed but never panic or read out of bounds.
func FuzzDecodeLanes(f *testing.F) {
	seed := EncodeLanes([]uint16{1, 2, 3, 4, 5, 6, 7, 8, 9}, 16)
	f.Add(seed, uint16(16))
	f.Add([]byte{0xff, 0xff, 0xff}, uint16(4))
	f.Fuzz(func(t *testing.T, data []byte, span uint16) {
		alphabet := int(span)%4096 + 1
		_, _ = DecodeLanes(data, alphabet, 1)
		_, _ = DecodeLanes(data, alphabet, 4)
	})
}

// checkRange decodes [lo, hi) of blob into a sentinel-filled buffer and
// checks it against want, the full decode: out[from:hi] must match, from
// must be the start of a lane at or before lo, nothing outside
// [from, hi) may be written, and decoded must count the lanes holding a
// symbol of the range.
func checkRange(t *testing.T, blob []byte, alphabet int, want []uint16, lo, hi int) {
	t.Helper()
	const sentinel = 0xffff
	dst := make([]uint16, len(want))
	for i := range dst {
		dst[i] = sentinel
	}
	out, from, decoded, err := DecodeLanesRange(dst, blob, alphabet, lo, hi)
	if err != nil {
		t.Fatalf("[%d,%d): %v", lo, hi, err)
	}
	if len(out) != len(want) {
		t.Fatalf("[%d,%d): length %d want %d", lo, hi, len(out), len(want))
	}
	n, lanes, start := len(want), 0, false
	for k := range NumLanes {
		klo, khi := laneBounds(n, k)
		start = start || klo == from
		if max(klo, lo) < min(khi, hi) {
			lanes++
		}
	}
	if lo < hi && (from > lo || !start) {
		t.Fatalf("[%d,%d): from %d is not a lane start at or before lo", lo, hi, from)
	}
	if decoded != lanes {
		t.Fatalf("[%d,%d): %d lanes decoded, want %d", lo, hi, decoded, lanes)
	}
	for i := from; i < hi; i++ {
		if out[i] != want[i] {
			t.Fatalf("[%d,%d): symbol %d: got %d want %d", lo, hi, i, out[i], want[i])
		}
	}
	// A whole-stream range runs the interleaved kernel; any other range
	// decodes only [from, hi).
	if lo == 0 && hi == n {
		return
	}
	for i := range out {
		if (i < from || i >= hi) && out[i] != sentinel {
			t.Fatalf("[%d,%d): symbol %d outside [%d,%d) was written", lo, hi, i, from, hi)
		}
	}
}

func TestDecodeLanesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 100, 4099} {
		codes := make([]uint16, n)
		for i := range codes {
			codes[i] = uint16(rng.Intn(40) + 1)
		}
		blob := EncodeLanes(codes, 64)
		// Every range over the lane edges and their neighbours.
		var points []int
		for k := 0; k <= NumLanes; k++ {
			e := k * n / NumLanes
			for _, p := range []int{e - 1, e, e + 1} {
				if p >= 0 && p <= n {
					points = append(points, p)
				}
			}
		}
		for _, lo := range points {
			for _, hi := range points {
				if lo <= hi {
					checkRange(t, blob, 64, codes, lo, hi)
				}
			}
		}
		for _, r := range [][2]int{{-1, n}, {0, n + 1}, {n, n - 1}} {
			if _, _, _, err := DecodeLanesRange(nil, blob, 64, r[0], r[1]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("n=%d: range %v outside the stream: err %v", n, r, err)
			}
		}
	}
}

// FuzzDecodeLanesRange checks the range decoder against the full lane
// decoder: on valid EncodeLanes blobs out[from:hi] must match for any
// [lo, hi), and on mutated bytes it must error or agree with the full
// decode of the same bytes, never panic, and never return more symbols
// than decodeHeader's bound (one per payload bit) admits.
func FuzzDecodeLanesRange(f *testing.F) {
	f.Add([]byte{}, uint16(4), uint16(0), uint16(0), uint32(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(9), uint16(3), uint16(7), uint32(0x1234))
	f.Add(bytes.Repeat([]byte{3, 9, 200}, 300), uint16(300), uint16(450), uint16(700), uint32(77))
	f.Fuzz(func(t *testing.T, raw []byte, span, a, b uint16, mut uint32) {
		alphabet := int(span)%2048 + 1
		codes := make([]uint16, len(raw))
		for i, c := range raw {
			codes[i] = uint16(int(c) * alphabet / 256)
		}
		n := len(codes)
		lo, hi := int(a)%(n+1), int(b)%(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		blob := EncodeLanes(codes, alphabet)
		checkRange(t, blob, alphabet, codes, lo, hi)

		bad := bytes.Clone(blob)
		bad[int(mut)%len(bad)] ^= byte(mut>>8) | 1
		out, from, _, err := DecodeLanesRange(nil, bad, alphabet, lo, hi)
		if err != nil {
			return
		}
		if len(out) > 8*len(bad) {
			t.Fatalf("%d symbols from a %d-byte blob", len(out), len(bad))
		}
		if whole, err := DecodeLanes(bad, alphabet, 1); err == nil {
			for i := from; i < hi; i++ {
				if out[i] != whole[i] {
					t.Fatalf("mutated blob: symbol %d: range %d, full %d", i, out[i], whole[i])
				}
			}
		}
	})
}
