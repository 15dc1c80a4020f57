package huffman

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"stz/internal/bitio"
)

// refDecode is the bit-serial canonical reference decoder: it parses a v1
// or (lanes) v2 blob with the plain bitio reads, applies the same
// structural checks as the real decoder, and decodes every code one bit at
// a time against an explicit (length, code) → symbol map.
func refDecode(data []byte, alphabet int, lanes bool) ([]uint16, error) {
	r := bitio.NewReader(data)
	n, err := r.ReadGamma()
	if err != nil {
		return nil, err
	}
	if n > 1<<34 || n > uint64(len(data))*8 {
		return nil, ErrCorrupt
	}
	distinct, err := r.ReadGamma()
	if err != nil {
		return nil, err
	}
	if distinct > uint64(alphabet) {
		return nil, ErrCorrupt
	}
	var syms []uint16
	var lens []uint8
	sym := -1
	for i := uint64(0); i < distinct; i++ {
		delta, err := r.ReadGamma()
		if err != nil {
			return nil, err
		}
		l, err := r.ReadBits(5)
		if err != nil {
			return nil, err
		}
		if delta >= uint64(alphabet) || sym+int(delta)+1 >= alphabet || l == 0 {
			return nil, ErrCorrupt
		}
		sym += int(delta) + 1
		syms = append(syms, uint16(sym))
		lens = append(lens, uint8(l))
	}
	var kraft uint64
	for _, l := range lens {
		kraft += 1 << (maxCodeLen - uint(l))
	}
	if len(lens) > 1 && kraft > 1<<maxCodeLen {
		return nil, ErrCorrupt
	}

	// Canonical codes: ascending by (length, symbol), each code one more
	// than the previous, shifted left when the length grows.
	order := make([]int, len(syms))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return int(lens[a]) - int(lens[b]) })
	type lenCode struct {
		l    uint8
		code uint32
	}
	codeOf := map[lenCode]uint16{}
	var code uint32
	var prevLen, maxLen uint8
	for k, i := range order {
		if k > 0 {
			code++
		}
		code <<= lens[i] - prevLen
		prevLen = lens[i]
		maxLen = lens[i]
		codeOf[lenCode{lens[i], code}] = syms[i]
	}
	decodeOne := func(r *bitio.Reader) (uint16, error) {
		var code uint32
		for l := uint8(1); l <= maxLen; l++ {
			b, err := r.ReadBit()
			if err != nil {
				return 0, err
			}
			code = code<<1 | uint32(b)
			if s, ok := codeOf[lenCode{l, code}]; ok {
				return s, nil
			}
		}
		return 0, ErrCorrupt
	}

	out := make([]uint16, n)
	if !lanes {
		for i := range out {
			if out[i], err = decodeOne(r); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if n == 0 {
		return out, nil
	}
	if maxLen == 0 {
		return nil, ErrCorrupt
	}
	r.AlignByte()
	var laneLen [NumLanes - 1]uint64
	for k := range laneLen {
		if laneLen[k], err = r.ReadBits(40); err != nil {
			return nil, err
		}
	}
	off := uint64(r.ByteOffset())
	for k := 0; k < NumLanes; k++ {
		end := uint64(len(data))
		if k < NumLanes-1 {
			end = off + laneLen[k]
			if end < off || end > uint64(len(data)) {
				return nil, ErrCorrupt
			}
		}
		lr := bitio.NewReader(data[off:end])
		lo, hi := laneBounds(int(n), k)
		for i := lo; i < hi; i++ {
			if out[i], err = decodeOne(lr); err != nil {
				return nil, err
			}
		}
		off = end
	}
	return out, nil
}

// checkAgainstRef decodes blob with the reference and with every real
// decoder path that reads its layout, and fails unless all succeed with
// the same symbols or all fail.
func checkAgainstRef(t *testing.T, blob []byte, alphabet int, lanes bool) {
	t.Helper()
	want, wantErr := refDecode(blob, alphabet, lanes)
	var paths []func() ([]uint16, error)
	if lanes {
		for _, workers := range []int{1, 4} {
			paths = append(paths, func() ([]uint16, error) { return DecodeLanes(blob, alphabet, workers) })
		}
	} else {
		paths = append(paths, func() ([]uint16, error) { return Decode(blob, alphabet) })
	}
	for i, decode := range paths {
		got, err := decode()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("lanes=%v path %d: error %v, reference error %v", lanes, i, err, wantErr)
		}
		if err == nil && !slices.Equal(got, want) {
			t.Fatalf("lanes=%v path %d: symbols differ from the reference", lanes, i)
		}
	}
}

// craftedTables are length tables the encoder's own Huffman build rarely
// or never produces, given as present symbols (ascending) and lengths.
var craftedTables = []struct {
	name string
	syms []uint16
	lens []uint8
}{
	{"single-len1", []uint16{5}, []uint8{1}},
	{"single-len31", []uint16{7}, []uint8{31}},
	{"chain-to-31", seq(0, 32), append(seqLens(1, 31), 31)},
	{"incomplete", []uint16{2, 9, 40}, []uint8{1, 3, 14}},
	{"incomplete-long", seq(100, 104), []uint8{2, 13, 20, 31}},
	{"root-plus-one", seq(0, 14), append(seqLens(1, rootBits+1), rootBits+1)},
	{"flat-root-plus-one", seq(0, 1<<(rootBits+1)), flatLens(1<<(rootBits+1), rootBits+1)},
	{"root-exact", seq(0, 1<<rootBits), flatLens(1<<rootBits, rootBits)},
}

func seq(lo, hi int) []uint16 {
	s := make([]uint16, 0, hi-lo)
	for v := lo; v < hi; v++ {
		s = append(s, uint16(v))
	}
	return s
}

func seqLens(lo, hi int) []uint8 {
	s := make([]uint8, 0, hi-lo+1)
	for l := lo; l <= hi; l++ {
		s = append(s, uint8(l))
	}
	return s
}

func flatLens(n int, l uint8) []uint8 {
	s := make([]uint8, n)
	for i := range s {
		s[i] = l
	}
	return s
}

// TestDecodeMatchesReference checks the table-driven decoder against the
// bit-serial reference on crafted length tables, for v1 and lane payloads:
// intact streams must decode to the input, and truncated or bit-flipped
// ones must fail or succeed exactly as the reference does.
func TestDecodeMatchesReference(t *testing.T) {
	const alphabet = 1 << 16
	rng := rand.New(rand.NewSource(12))
	for _, tc := range craftedTables {
		if err := validateLengths(tc.lens); err != nil {
			t.Fatalf("%s: crafted table is invalid: %v", tc.name, err)
		}
		for _, n := range []int{0, 1, 7, 1000, laneParallelMin + 321} {
			codes := make([]uint16, n)
			for i := range codes {
				codes[i] = tc.syms[rng.Intn(len(tc.syms))]
			}
			for _, lanes := range []bool{false, true} {
				blob := encodeWith(codes, alphabet, tc.syms, tc.lens, lanes)
				want, err := refDecode(blob, alphabet, lanes)
				if err != nil || !slices.Equal(want, codes) {
					t.Fatalf("%s n=%d lanes=%v: reference does not round-trip (%v)", tc.name, n, lanes, err)
				}
				checkAgainstRef(t, blob, alphabet, lanes)
				if n > 1000 {
					continue // the corruption sweep below is quadratic
				}
				for cut := 0; cut < len(blob); cut += 1 + len(blob)/40 {
					checkAgainstRef(t, blob[:cut], alphabet, lanes)
				}
				for k := 0; k < 40 && len(blob) > 0; k++ {
					mut := slices.Clone(blob)
					mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
					checkAgainstRef(t, mut, alphabet, lanes)
				}
			}
		}
	}
}

// TestHostileTableBounded checks that a length table claiming more
// symbols than its blob can hold is rejected before the decoder sizes any
// buffer by it.
func TestHostileTableBounded(t *testing.T) {
	w := bitio.NewWriter(16)
	w.WriteGamma(8)
	w.WriteGamma(60000)
	for i := 0; i < 8; i++ {
		w.WriteGamma(0)
		w.WriteBits(3, 5)
	}
	blob := w.Bytes()
	var d decoder
	var r bitio.Reader
	r.Reset(blob)
	if _, err := r.ReadGamma(); err != nil {
		t.Fatal(err)
	}
	if err := d.readLengths(&r, blob, 1<<16); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("readLengths = %v, want ErrCorrupt", err)
	}
	if cap(d.syms) != 0 || cap(d.lens) != 0 {
		t.Fatalf("hostile count sized the table buffers: cap %d/%d", cap(d.syms), cap(d.lens))
	}
	for _, lanes := range []bool{false, true} {
		checkAgainstRef(t, blob, 1<<16, lanes)
	}
}

// FuzzDecodeReference builds blobs from a fuzzed length table (gap and
// length bytes, written as they come, so oversubscribed, incomplete and
// zero-length tables all occur) and a fuzzed payload, and checks the
// decoder against the bit-serial reference on the v1 and lane layouts.
// It must never panic, and must agree with the reference on every input.
func FuzzDecodeReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 2}, []byte{0x5a, 0xc3, 0x0f}, uint16(9), uint16(64))
	f.Add([]byte{3, 31}, []byte{0, 0, 0, 0, 0, 0, 0, 0}, uint16(2), uint16(16))
	f.Add([]byte{0, 2, 0, 2, 0, 3, 0, 13, 0, 13}, []byte("fuzz the long codes"), uint16(30), uint16(300))
	f.Fuzz(func(t *testing.T, table, payload []byte, nRaw, span uint16) {
		alphabet := int(span)%4096 + 1
		n := int(nRaw) % 512
		for _, lanes := range []bool{false, true} {
			w := bitio.NewWriter(len(table) + len(payload) + 32)
			w.WriteGamma(uint64(n))
			w.WriteGamma(uint64(len(table) / 2))
			for i := 0; i+1 < len(table); i += 2 {
				w.WriteGamma(uint64(table[i]))
				w.WriteBits(uint64(table[i+1]), 5)
			}
			if lanes {
				w.AlignByte()
				for k := 0; k < NumLanes-1; k++ {
					w.WriteBits(uint64(len(payload)/NumLanes), 40)
				}
				w.AlignByte()
				w.WriteBytes(payload)
			} else {
				for _, b := range payload {
					w.WriteBits(uint64(b), 8)
				}
			}
			checkAgainstRef(t, w.Bytes(), alphabet, lanes)
		}
	})
}
