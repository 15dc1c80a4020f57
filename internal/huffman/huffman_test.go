package huffman

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, codes []uint16, alphabet int) []byte {
	t.Helper()
	enc := Encode(codes, alphabet)
	dec, err := Decode(enc, alphabet)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(codes) {
		t.Fatalf("length mismatch: got %d want %d", len(dec), len(codes))
	}
	for i := range codes {
		if dec[i] != codes[i] {
			t.Fatalf("symbol %d: got %d want %d", i, dec[i], codes[i])
		}
	}
	return enc
}

func TestEmpty(t *testing.T) {
	roundTrip(t, nil, 16)
}

func TestSingleSymbol(t *testing.T) {
	codes := make([]uint16, 1000)
	for i := range codes {
		codes[i] = 7
	}
	enc := roundTrip(t, codes, 16)
	// 1000 one-bit codes + small header: must be far below 1000 bytes.
	if len(enc) > 200 {
		t.Fatalf("single-symbol stream too large: %d bytes", len(enc))
	}
}

func TestTwoSymbols(t *testing.T) {
	codes := []uint16{0, 1, 0, 1, 1, 1, 0}
	roundTrip(t, codes, 2)
}

func TestAllSymbolsOnce(t *testing.T) {
	const alphabet = 300
	codes := make([]uint16, alphabet)
	for i := range codes {
		codes[i] = uint16(i)
	}
	roundTrip(t, codes, alphabet)
}

func TestSkewedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	codes := make([]uint16, 50000)
	for i := range codes {
		// geometric-ish around 512 mimicking quantizer output
		v := 512 + int(rng.NormFloat64()*3)
		if v < 0 {
			v = 0
		}
		if v > 1023 {
			v = 1023
		}
		codes[i] = uint16(v)
	}
	enc := roundTrip(t, codes, 1024)
	// Entropy here is ~3.5 bits/sym; require meaningful compression vs 16-bit raw.
	if len(enc) >= len(codes)*2/2 {
		t.Fatalf("no compression achieved: %d bytes for %d symbols", len(enc), len(codes))
	}
}

func TestLargeAlphabetSparse(t *testing.T) {
	// Mimics quantizer output with radius 32768: cluster near 32768 plus
	// outlier marker 0. The table must stay compact.
	rng := rand.New(rand.NewSource(1))
	codes := make([]uint16, 20000)
	for i := range codes {
		if rng.Intn(100) == 0 {
			codes[i] = 0
		} else {
			codes[i] = uint16(32768 + rng.Intn(17) - 8)
		}
	}
	enc := roundTrip(t, codes, 65536)
	if len(enc) > 20000 {
		t.Fatalf("sparse large-alphabet stream too large: %d", len(enc))
	}
}

func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codes := make([]uint16, 5000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(256))
	}
	a := Encode(codes, 256)
	b := Encode(codes, 256)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestUniformRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	codes := make([]uint16, 10000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(4096))
	}
	roundTrip(t, codes, 4096)
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16, spanRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 2000
		span := int(spanRaw)%1000 + 1
		codes := make([]uint16, n)
		for i := range codes {
			codes[i] = uint16(rng.Intn(span))
		}
		enc := Encode(codes, span)
		dec, err := Decode(enc, span)
		if err != nil || len(dec) != n {
			return false
		}
		for i := range codes {
			if dec[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptTableRejected(t *testing.T) {
	codes := []uint16{1, 2, 3, 4, 5}
	enc := Encode(codes, 8)
	for i := 0; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		// Must not panic; error or wrong data are both acceptable.
		dec, err := Decode(mut, 8)
		_ = dec
		_ = err
	}
}

func TestTruncatedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	codes := make([]uint16, 1000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(100))
	}
	enc := Encode(codes, 100)
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := Decode(enc[:cut], 100); err == nil && cut < len(enc)/2 {
			t.Fatalf("truncation at %d of %d not detected", cut, len(enc))
		}
	}
}

func TestDepthLimiting(t *testing.T) {
	// Fibonacci-like counts force maximal depth; codec must cap at 31 and
	// still round-trip.
	const n = 48
	counts := make([]uint64, n)
	a, b := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		counts[i] = a
		a, b = b, a+b
	}
	tbl := BuildTable(counts)
	if len(tbl.syms) != n {
		t.Fatalf("table codes %d symbols, want %d", len(tbl.syms), n)
	}
	for i, l := range tbl.lengths {
		if l == 0 || l > maxCodeLen {
			t.Fatalf("sym %d length %d out of range", tbl.syms[i], l)
		}
	}
	// Build a code stream matching those counts (scaled down).
	var codes []uint16
	for sym := 0; sym < n; sym++ {
		reps := int(counts[sym] % 97)
		for r := 0; r < reps; r++ {
			codes = append(codes, uint16(sym))
		}
	}
	roundTrip(t, codes, n)
}

func TestKraftValidation(t *testing.T) {
	lengths := make([]uint8, 8)
	for i := range lengths {
		lengths[i] = 1 // oversubscribed: eight 1-bit codes
	}
	if err := validateLengths(lengths); err == nil {
		t.Fatal("oversubscribed code accepted")
	}
}

func TestCompressedSizeEstimate(t *testing.T) {
	counts := []uint64{100, 100, 100, 100}
	// 4 equiprobable symbols -> 2 bits each -> 100 bytes.
	if got := CompressedSizeEstimate(counts); got != 100 {
		t.Fatalf("estimate=%d want 100", got)
	}
}

func BenchmarkEncode50k(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	codes := make([]uint16, 50000)
	for i := range codes {
		v := 512 + int(rng.NormFloat64()*3)
		if v < 0 {
			v = 0
		}
		codes[i] = uint16(v & 1023)
	}
	b.SetBytes(int64(len(codes) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(codes, 1024)
	}
}

func BenchmarkDecode50k(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	codes := make([]uint16, 50000)
	for i := range codes {
		v := 512 + int(rng.NormFloat64()*3)
		if v < 0 {
			v = 0
		}
		codes[i] = uint16(v & 1023)
	}
	enc := Encode(codes, 1024)
	b.SetBytes(int64(len(codes) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEncodeAfterPanicUnchanged(t *testing.T) {
	// A code >= alphabet panics mid-histogram; once recovered, that
	// encoder's partial counts must not reach the next Encode.
	codes := []uint16{5, 5, 9, 1, 5, 9, 700, 5}
	want := Encode(codes, 1024)
	for range 4 {
		func() {
			defer func() { _ = recover() }()
			Encode([]uint16{3, 3, 3, 800, 1024}, 1024)
		}()
		if got := Encode(codes, 1024); !bytes.Equal(got, want) {
			t.Fatalf("Encode after a recovered panic = %x, want %x", got, want)
		}
	}
}
