// Package huffman implements a canonical Huffman codec over 16-bit symbols.
//
// It is the lossless-encoding stage shared by the SZ3 baseline, the STZ
// core, and the MGARD-lite and SPERR-lite baselines: quantization codes are
// histogrammed, a depth-limited canonical code is built, and the code-length
// table is serialized ahead of the bitstream so each sub-block stream is
// self-describing and independently decodable.
//
// Both directions work over the list of present symbols, not the alphabet:
// a quantizer alphabet has 65,536 symbols while a real stream uses a few
// hundred, so table set-up costs O(present symbols) plus a fixed-size
// decode table, whatever the alphabet.
//
// The encoder and decoder are allocation-free in steady state: histograms,
// the Huffman build's queues, the packed code table and the decoder state
// all recycle through scratch arenas and local sync.Pools.
package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"stz/internal/bitio"
	"stz/internal/parallel"
	"stz/internal/scratch"
)

const (
	maxCodeLen = 31 // longest admissible code, fits the 5-bit length field
	// rootBits is the width of the first-level decode table: every code of
	// at most rootBits bits decodes with one lookup, longer ones with one
	// lookup plus a short limit search. It also caps the table size, so no
	// length table can make the decoder allocate more.
	rootBits = 12
	rootMask = 1<<rootBits - 1

	// NumLanes is the lane count of the v2 multi-stream payload: the symbol
	// stream is split into NumLanes near-equal contiguous segments, each
	// encoded as an independent bitstream over one shared code table. The
	// lane directory makes every lane start a seek point (DecodeLanesRange).
	NumLanes = 4
	// laneParallelMin is the symbol count from which DecodeLanesInto hands
	// whole lanes to parallel.For workers instead of interleaving them on
	// the calling goroutine (below it, goroutine overhead dominates).
	laneParallelMin = 1 << 16
)

// ErrCorrupt is returned when a stream fails structural validation.
var ErrCorrupt = errors.New("huffman: corrupt stream")

// buildScratch is the reusable tree-construction state of the two-queue
// Huffman build, over the present symbols: leaf i is present symbol i, and
// internal node k is the k-th merge.
type buildScratch struct {
	leaves []uint64 // count<<16 | leaf index, ascending
	sums   []uint64 // count of internal node k
	parent []int32  // parent of leaf i at i, of internal node k at p+k
	depth  []uint8  // depth of internal node k
}

// codeLengths computes Huffman code lengths for the present symbols with
// nonzero counts freq (each below 2^48) into lens (same order) and returns
// the longest.
// Lengths are depth-limited to maxCodeLen by flattening the histogram and
// rebuilding when necessary; freq is overwritten.
func (bs *buildScratch) codeLengths(freq []uint64, lens []uint8) uint8 {
	for {
		maxLen := bs.buildLengths(freq, lens)
		if maxLen <= maxCodeLen {
			return maxLen
		}
		for i, c := range freq {
			if c > 1 {
				freq[i] = (c + 1) / 2
			}
		}
	}
}

// buildLengths is one Huffman build. Every merge takes the two smallest
// nodes under the strict order (count, order), where a leaf's order is its
// index and an internal node's order follows every leaf and every earlier
// merge; this tie-break fixes the code lengths, and with them the
// archives. Sorted leaves plus the merges in creation order (whose counts
// never decrease) are two queues already in that order, so each step
// compares their fronts.
func (bs *buildScratch) buildLengths(freq []uint64, lens []uint8) uint8 {
	p := len(freq)
	switch p {
	case 0:
		return 0
	case 1:
		lens[0] = 1
		return 1
	}
	leaves := bs.leaves[:0]
	for i, c := range freq {
		leaves = append(leaves, c<<16|uint64(i))
	}
	slices.Sort(leaves)
	sums := slices.Grow(bs.sums[:0], p-1)[:p-1]
	parent := slices.Grow(bs.parent[:0], 2*p-1)[:2*p-1]
	li, ii := 0, 0 // fronts of the leaf and merge queues
	for k := 0; k < p-1; k++ {
		var sum uint64
		for range 2 {
			if li < p && (ii == k || leaves[li]>>16 <= sums[ii]) {
				parent[leaves[li]&0xffff] = int32(p + k)
				sum += leaves[li] >> 16
				li++
			} else {
				parent[p+ii] = int32(p + k)
				sum += sums[ii]
				ii++
			}
		}
		sums[k] = sum
	}
	// Parents are created after their children, so one backward pass from
	// the root (the last merge) assigns every depth.
	depth := slices.Grow(bs.depth[:0], p-1)[:p-1]
	depth[p-2] = 0
	for k := p - 3; k >= 0; k-- {
		depth[k] = depth[int(parent[p+k])-p] + 1
	}
	var maxLen uint8
	for i := range lens {
		lens[i] = depth[int(parent[i])-p] + 1
		maxLen = max(maxLen, lens[i])
	}
	bs.leaves, bs.sums, bs.parent, bs.depth = leaves, sums, parent, depth
	return maxLen
}

// firstCodes returns the first canonical code (MSB-first) of every length
// for the per-length code counts count, whose entry 0 must be zero.
func firstCodes(count *[maxCodeLen + 1]uint32) (first [maxCodeLen + 1]uint32) {
	var code uint32
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + count[l-1]) << 1
		first[l] = code
	}
	return first
}

// lengthCounts returns the number of codes of every length in lens.
func lengthCounts(lens []uint8) (count [maxCodeLen + 1]uint32) {
	for _, l := range lens {
		count[l]++
	}
	return count
}

// Table holds a canonical Huffman code over the present symbols.
type Table struct {
	syms    []uint16 // present symbols, ascending
	lengths []uint8  // code length of syms[i]
	codes   []uint32 // canonical code of syms[i], MSB-first
}

// BuildTable constructs a canonical table from symbol counts, each below
// 2^48 (the code-length build packs count<<16|symbol into one sort key).
func BuildTable(counts []uint64) *Table {
	t := &Table{}
	var freq []uint64
	for s, c := range counts {
		if c > 0 {
			t.syms = append(t.syms, uint16(s))
			freq = append(freq, c)
		}
	}
	t.lengths = make([]uint8, len(t.syms))
	e := encoderPool.Get().(*encoder)
	e.codeLengths(freq, t.lengths)
	encoderPool.Put(e)
	t.codes = make([]uint32, len(t.syms))
	count := lengthCounts(t.lengths)
	next := firstCodes(&count)
	for i, l := range t.lengths {
		t.codes[i] = next[l]
		next[l]++
	}
	return t
}

// reverseBits reverses the low n bits of v.
func reverseBits(v uint32, n uint8) uint32 {
	return bits.Reverse32(v) >> (32 - n)
}

// writeLengths serializes the code-length table of the present symbols
// syms (ascending) as numDistinct, then per present symbol gamma(delta-1
// from the previous present symbol) and a 5-bit length.
func writeLengths(w *bitio.Writer, syms []uint16, lens []uint8) {
	w.WriteGamma(uint64(len(syms)))
	prev := -1
	for i, s := range syms {
		w.WriteGamma(uint64(int(s) - prev - 1))
		w.WriteBits(uint64(lens[i]), 5)
		prev = int(s)
	}
}

// readLengths deserializes the code-length table into d.syms and d.lens.
// data is the whole blob, whose size bounds the table: every entry costs
// at least six bits (a one-bit gamma gap and the 5-bit length), so a
// corrupt count cannot size the buffers beyond the blob.
func (d *decoder) readLengths(r *bitio.Reader, data []byte, alphabet int) error {
	distinct, err := r.ReadGamma()
	if err != nil {
		return err
	}
	if distinct > uint64(alphabet) || distinct > uint64(len(data))*8/6 {
		return ErrCorrupt
	}
	d.syms, d.lens = d.syms[:0], d.lens[:0]
	sym := -1
	for i := uint64(0); i < distinct; i++ {
		delta, err := r.ReadGamma()
		if err != nil {
			return err
		}
		l, err := r.ReadBits(5)
		if err != nil {
			return err
		}
		// Bound the delta before the int conversion: a crafted gamma near
		// 2^64 would wrap sym negative and slip past the >= alphabet check.
		if delta >= uint64(alphabet) {
			return ErrCorrupt
		}
		sym += int(delta) + 1
		if sym >= alphabet || l == 0 || l > maxCodeLen {
			return ErrCorrupt
		}
		d.syms = append(d.syms, uint16(sym))
		d.lens = append(d.lens, uint8(l))
	}
	return nil
}

// validateLengths checks the Kraft sum so a corrupt table cannot describe
// an oversubscribed code.
func validateLengths(lens []uint8) error {
	if len(lens) <= 1 {
		return nil // empty or single-symbol (one bit by construction)
	}
	var kraft uint64
	for _, l := range lens {
		kraft += 1 << (maxCodeLen - uint(l))
	}
	if kraft > 1<<maxCodeLen {
		return fmt.Errorf("%w: oversubscribed code", ErrCorrupt)
	}
	return nil
}

// decoder is the canonical decoding state derived from a code-length
// table. Decoders recycle through decoderPool; the slice fields keep their
// backing arrays across uses, and none of them is sized by the alphabet.
//
// A symbol decodes from the next bits of the stream (transmitted order,
// next bit in bit 0) through the first-level table, indexed by the next
// d.bits bits. An entry holds sym<<8 | length for a code of at most d.bits
// bits; a prefix of longer codes holds minLen<<8, the shortest code length
// under that prefix, and the code is found by a Moffat–Turpin limit search
// from minLen (long); an entry of 0 is a prefix of no code.
type decoder struct {
	syms   []uint16 // present symbols, ascending, as read from the table
	lens   []uint8  // code length of syms[i]
	byCode []uint16 // present symbols in canonical order: by (length, symbol)
	maxLen uint
	bits   uint // first-level width: min(maxLen, rootBits)
	table  [1 << rootBits]uint32
	// limit[l] is one past the last code of length l, left-justified to 32
	// bits; offset[l] maps a length-l code to its byCode index (mod 2^32).
	limit  [maxCodeLen + 1]uint64
	offset [maxCodeLen + 1]uint32
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// build derives the decode tables from the validated length table read
// into d, in O(present symbols + 2^d.bits).
func (d *decoder) build() {
	count := lengthCounts(d.lens)
	d.maxLen = 0
	for l := maxCodeLen; l > 0; l-- {
		if count[l] > 0 {
			d.maxLen = uint(l)
			break
		}
	}
	d.bits = min(d.maxLen, rootBits)
	first := firstCodes(&count)
	var index [maxCodeLen + 1]uint32 // byCode index of each length's first code
	var n uint32
	for l := 1; l <= maxCodeLen; l++ {
		index[l] = n
		d.offset[l] = n - first[l]
		d.limit[l] = uint64(first[l]+count[l]) << (32 - l)
		n += count[l]
	}
	if cap(d.byCode) < len(d.syms) {
		d.byCode = make([]uint16, len(d.syms))
	}
	d.byCode = d.byCode[:len(d.syms)]
	next := index
	for i, s := range d.syms {
		l := d.lens[i]
		d.byCode[next[l]] = s
		next[l]++
	}

	// First-level table. Entries not written below stay 0: after an
	// incomplete code, those prefixes match no code.
	size := uint32(1) << d.bits
	clear(d.table[:size])
	for l := uint(1); l <= d.maxLen; l++ {
		for k := uint32(0); k < count[l]; k++ {
			code := first[l] + k
			if l <= d.bits {
				e := uint32(d.byCode[index[l]+k])<<8 | uint32(l)
				for v := reverseBits(code, uint8(l)); v < size; v += 1 << l {
					d.table[v] = e
				}
				continue
			}
			// Lengths are visited in increasing order, so the first code
			// seen under a prefix is the shortest.
			v := reverseBits(code>>(l-d.bits), uint8(d.bits))
			if d.table[v] == 0 {
				d.table[v] = uint32(l) << 8
			}
		}
	}
}

// long decodes a code longer than d.bits from the stream word v, whose
// first-level entry is e. In canonical order every code of length l sorts
// below limit[l] when left-justified, and the limits grow with l, so the
// code length is the first l from the entry's minLen with x < limit[l].
// Returns ok=false when no code matches.
func (d *decoder) long(v uint64, e uint32) (sym uint16, length uint, ok bool) {
	if e == 0 {
		return 0, 0, false
	}
	x := uint64(bits.Reverse32(uint32(v)))
	l := uint(e >> 8)
	for l < d.maxLen && x >= d.limit[l] {
		l++
	}
	if x >= d.limit[l] {
		return 0, 0, false
	}
	return d.byCode[d.offset[l]+uint32(x>>(32-l))], l, true
}

// decodeWord decodes one symbol from the stream word v (next stream bit
// in bit 0, zero past the end of the stream). The caller checks the
// returned length against the bits actually available.
func (d *decoder) decodeWord(v uint64) (uint16, uint, bool) {
	e := d.table[v&(1<<d.bits-1)&rootMask]
	if l := uint(e & 0xff); l != 0 {
		return uint16(e >> 8), l, true
	}
	return d.long(v, e)
}

// decodeStream decodes len(out) symbols from r. While the reader can top
// its accumulator up to a full word, symbols decode on the refill-amortized
// fast path — after each refill, unchecked PeekFast/SkipFast calls for as
// long as the bits left cover a longest code — and the stream tail falls
// back to a per-symbol path that checks every code against the bits left.
func decodeStream(d *decoder, r *bitio.Reader, out []uint16) error {
	i := 0
	if d.maxLen > 0 {
		table, mask, maxLen := &d.table, uint64(1)<<d.bits-1, d.maxLen
		for n := r.Refill(); i < len(out) && n >= 56; n = r.Refill() {
			for ; i < len(out) && n >= maxLen; i++ {
				// decodeWord, written out: the call would not inline.
				v := r.PeekFast(32)
				e := table[v&mask&rootMask]
				s, l := uint16(e>>8), uint(e&0xff)
				if l == 0 {
					var ok bool
					if s, l, ok = d.long(v, e); !ok {
						return ErrCorrupt
					}
				}
				r.SkipFast(l)
				n -= l
				out[i] = s
			}
		}
	}
	for ; i < len(out); i++ {
		v, avail := r.Peek(32)
		s, l, ok := d.decodeWord(v)
		if !ok {
			return ErrCorrupt
		}
		if l > avail {
			return bitio.ErrOutOfBits
		}
		r.SkipFast(l)
		out[i] = s
	}
	return nil
}

// packTable derives the canonical codes of the present symbols syms
// (ascending) and packs the transmitted-order (bit-reversed) code and
// length into packed[sym] = code<<8 | len, so the encode hot loop is one
// table load per symbol. Only the entries of present symbols are written.
func packTable(syms []uint16, lens []uint8, packed []uint64) {
	count := lengthCounts(lens)
	next := firstCodes(&count)
	for i, s := range syms {
		l := lens[i]
		packed[s] = uint64(reverseBits(next[l], l))<<8 | uint64(l)
		next[l]++
	}
}

// encodeSymbols writes the (code,len) pair of every symbol into w on the
// word-batched fast path: pairs pack into the writer's 64-bit accumulator
// and buffer bounds are checked once per drained word rather than once per
// symbol.
func encodeSymbols(w *bitio.Writer, codes []uint16, packed []uint64) {
	for _, c := range codes {
		e := packed[c]
		if w.Free() < maxCodeLen+1 {
			w.DrainBytes()
		}
		w.WriteBitsFast(e>>8, uint(e&0xff))
	}
}

// encoder is the pooled encode-side state: the tree builder plus the
// histogram and the present-symbol lists gathered from it.
type encoder struct {
	buildScratch
	// counts is alphabet-sized and all zero between uses: histogram
	// clears only the entries it counted, so no encode pays for clearing
	// the alphabet.
	counts []uint64
	seen   []uint64 // bitmap over the alphabet, all zero between uses
	syms   []uint16 // present symbols, ascending
	freq   []uint64 // count of syms[i]
	lens   []uint8  // code length of syms[i]
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// histogram counts codes and gathers the present symbols, in ascending
// order, into e.syms and their counts into e.freq, in O(len(codes) +
// alphabet/64): the first occurrence of a symbol sets its bit in a bitmap,
// and the gather clears exactly the counts and bitmap words it read.
func (e *encoder) histogram(codes []uint16, alphabet int) {
	if cap(e.counts) < alphabet {
		e.counts = make([]uint64, alphabet)
		e.seen = make([]uint64, (alphabet+63)/64)
	}
	counts, seen := e.counts[:alphabet], e.seen[:(alphabet+63)/64]
	for _, c := range codes {
		if counts[c] == 0 {
			seen[c/64] |= 1 << (c % 64)
		}
		counts[c]++
	}
	e.syms, e.freq = e.syms[:0], e.freq[:0]
	for i, word := range seen {
		for word != 0 {
			s := i*64 + bits.TrailingZeros64(word)
			word &= word - 1
			e.syms = append(e.syms, uint16(s))
			e.freq = append(e.freq, counts[s])
			counts[s] = 0
		}
		seen[i] = 0
	}
}

// Encode compresses codes (all values must be < alphabet) into a
// self-describing byte stream: symbol count, code-length table, payload.
// This is the v1 single-stream layout; new archive formats use EncodeLanes.
func Encode(codes []uint16, alphabet int) []byte { return encode(codes, alphabet, false) }

// EncodeLanes compresses codes into the v2 multi-lane payload: the shared
// header (symbol count + one code-length table) is followed by a
// byte-aligned lane directory and NumLanes independent bitstreams, lane k
// holding the contiguous segment laneBounds(n, k). Splitting the payload
// breaks the decoder's single bit-serial dependency chain — the lanes
// decode interleaved on one goroutine (hiding table-load latency behind
// four independent chains) or on parallel.For workers for large streams.
// All values must be < alphabet.
func EncodeLanes(codes []uint16, alphabet int) []byte { return encode(codes, alphabet, true) }

// encode histograms codes, builds their depth-limited code and writes the
// v1 or (lanes) v2 stream.
func encode(codes []uint16, alphabet int, lanes bool) []byte {
	e := encoderPool.Get().(*encoder)
	e.histogram(codes, alphabet)
	e.lens = slices.Grow(e.lens[:0], len(e.syms))[:len(e.syms)]
	e.codeLengths(e.freq, e.lens)
	out := encodeWith(codes, alphabet, e.syms, e.lens, lanes)
	// Not deferred: a code >= alphabet panics in histogram with counts
	// left set, and that encoder must not go back to the pool.
	encoderPool.Put(e)
	return out
}

// encodeWith writes codes as a v1 or (lanes) v2 stream under the canonical
// code of the present symbols syms (ascending) with lengths lens, which
// must cover every symbol of codes.
func encodeWith(codes []uint16, alphabet int, syms []uint16, lens []uint8, lanes bool) []byte {
	w := bitio.NewWriter(len(codes)/2 + 80)
	w.WriteGamma(uint64(len(codes)))
	writeLengths(w, syms, lens)
	packed := scratch.U64.Lease(alphabet)
	defer scratch.U64.Release(packed)
	packTable(syms, lens, packed)
	if !lanes {
		encodeSymbols(w, codes, packed)
		return w.Bytes()
	}

	// Byte-aligned lane directory: the byte length of every lane but the
	// last (which runs to the end of the blob), 40 bits each so a lane of a
	// maximum-size grid cannot overflow the field. The directory is written
	// as placeholder zeros and backpatched after the lanes are encoded —
	// the entries sit at byte-aligned fixed offsets, so this costs a 15-byte
	// rewrite instead of a second pass over 3/4 of the symbols.
	n := len(codes)
	w.AlignByte()
	dirOff := w.BitLen() / 8
	var dir [(NumLanes - 1) * 5]byte
	w.WriteBytes(dir[:])
	var laneLen [NumLanes - 1]uint64
	for k := 0; k < NumLanes; k++ {
		lo, hi := laneBounds(n, k)
		start := w.BitLen() / 8
		encodeSymbols(w, codes[lo:hi], packed)
		w.AlignByte()
		if k < NumLanes-1 {
			laneLen[k] = uint64(w.BitLen()/8 - start)
		}
	}
	out := w.Bytes()
	// A 40-bit WriteBits at a byte boundary is 5 little-endian bytes.
	for k, l := range laneLen {
		for b := 0; b < 5; b++ {
			out[dirOff+5*k+b] = byte(l >> (8 * b))
		}
	}
	return out
}

// laneBounds returns lane k's symbol range [lo, hi): NumLanes near-equal
// contiguous segments of an n-symbol stream.
func laneBounds(n, k int) (lo, hi int) {
	return k * n / NumLanes, (k + 1) * n / NumLanes
}

// Decode reverses Encode. alphabet must match the encoder's.
func Decode(data []byte, alphabet int) ([]uint16, error) {
	return DecodeInto(nil, data, alphabet)
}

// decodeHeader runs the shared decoder prologue: read the symbol count,
// sanity-check it, lease a decoder, and read + validate the code-length
// table. On success the reader is positioned at the first payload bit and
// the caller owns the leased decoder (decoderPool.Put) and the returned
// output slice (dst reused when its capacity suffices). The decode tables
// are built only when the stream has symbols.
func decodeHeader(r *bitio.Reader, dst []uint16, data []byte, alphabet int) ([]uint16, *decoder, error) {
	r.Reset(data)
	n, err := r.ReadGamma()
	if err != nil {
		return nil, nil, err
	}
	const maxReasonable = 1 << 34
	// Every symbol costs at least one payload bit, so a count beyond the
	// blob's bit length is structurally impossible — reject it before the
	// output allocation, or a dozen corrupt bytes could demand gigabytes.
	if n > maxReasonable || n > uint64(len(data))*8 {
		return nil, nil, ErrCorrupt
	}
	d := decoderPool.Get().(*decoder)
	err = d.readLengths(r, data, alphabet)
	if err == nil {
		err = validateLengths(d.lens)
	}
	if err != nil {
		decoderPool.Put(d)
		return nil, nil, err
	}
	if n > 0 {
		d.build()
	}
	var out []uint16
	if uint64(cap(dst)) >= n {
		out = dst[:n]
	} else {
		out = make([]uint16, n)
	}
	return out, d, nil
}

// DecodeInto reverses Encode, decoding into dst when its capacity suffices
// (dst may be nil). The returned slice aliases dst's backing array when it
// was reused; callers that lease dst from a scratch arena own the result.
// alphabet must match the encoder's.
func DecodeInto(dst []uint16, data []byte, alphabet int) ([]uint16, error) {
	var r bitio.Reader
	out, d, err := decodeHeader(&r, dst, data, alphabet)
	if err != nil {
		return nil, err
	}
	defer decoderPool.Put(d)
	if err := decodeStream(d, &r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeLanes reverses EncodeLanes, decoding lanes on up to workers
// goroutines. alphabet must match the encoder's.
func DecodeLanes(data []byte, alphabet, workers int) ([]uint16, error) {
	return DecodeLanesInto(nil, data, alphabet, workers)
}

// decodeLanesHeader runs decodeHeader on an EncodeLanes stream and reads
// its lane directory, splitting the payload into the NumLanes lane
// bitstreams (all nil for an empty stream, which has no directory). On
// success the caller owns the leased decoder and the output slice, as
// with decodeHeader.
func decodeLanesHeader(r *bitio.Reader, dst []uint16, data []byte, alphabet int) ([]uint16, *decoder, [NumLanes][]byte, error) {
	var lanes [NumLanes][]byte
	out, d, err := decodeHeader(r, dst, data, alphabet)
	if err != nil || len(out) == 0 {
		return out, d, lanes, err
	}
	fail := func(err error) ([]uint16, *decoder, [NumLanes][]byte, error) {
		decoderPool.Put(d)
		return nil, nil, lanes, err
	}
	if d.maxLen == 0 {
		return fail(ErrCorrupt) // n > 0 but the table codes nothing
	}
	r.AlignByte()
	var laneLen [NumLanes - 1]uint64
	for k := range laneLen {
		if laneLen[k], err = r.ReadBits(40); err != nil {
			return fail(err)
		}
	}
	off := int64(r.ByteOffset())
	for k := range laneLen {
		end := off + int64(laneLen[k])
		if end < off || end > int64(len(data)) {
			return fail(ErrCorrupt)
		}
		lanes[k] = data[off:end]
		off = end
	}
	lanes[NumLanes-1] = data[off:]
	return out, d, lanes, nil
}

// DecodeLanesInto reverses EncodeLanes, decoding into dst when its
// capacity suffices (dst may be nil; the result aliases dst when reused).
// Small streams interleave the NumLanes lanes on the calling goroutine —
// one refill-amortized batch per lane per round, so the CPU always has
// NumLanes independent decode chains in flight; streams of at least
// laneParallelMin symbols hand whole lanes to parallel.For when workers >
// 1. alphabet must match the encoder's.
func DecodeLanesInto(dst []uint16, data []byte, alphabet, workers int) ([]uint16, error) {
	var r bitio.Reader
	out, d, laneData, err := decodeLanesHeader(&r, dst, data, alphabet)
	if err != nil {
		return nil, err
	}
	defer decoderPool.Put(d)
	if len(out) == 0 {
		return out, nil
	}

	nn := len(out)
	// Whole-lane parallel decode pays only when the stream is large enough
	// to amortize goroutine handoff and the runtime actually has cores to
	// run lanes on; otherwise the register-resident interleave below is
	// strictly faster.
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && nn >= laneParallelMin {
		// The closure must capture a branch-local copy: capturing laneData
		// itself would force it to the heap on the (allocation-free)
		// interleaved path below too.
		lanes := laneData
		var errs [NumLanes]error
		parallel.For(NumLanes, workers, func(k int) {
			lo, hi := laneBounds(nn, k)
			var lr bitio.Reader
			lr.Reset(lanes[k])
			errs[k] = decodeStream(d, &lr, out[lo:hi])
		})
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return out, nil
	}

	if err := d.decodeLanesInterleaved(&laneData, out, nn); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeLanesRange decodes only the part of an EncodeLanes stream that the
// symbol range [lo, hi) needs, using the lane directory as seek points:
// every lane holding a symbol of the range decodes from its start and
// stops at hi, and the other lanes are skipped. out has the stream's full
// length; out[from:hi] holds its symbols, where from is the start of the
// first lane decoded, and the rest of out keeps whatever dst held. decoded
// counts the lanes decoded, of NumLanes. A range covering the whole stream
// decodes on the interleaved kernel of DecodeLanesInto. The range must lie
// within the stream (0 <= lo <= hi <= len(out)), else the error wraps
// ErrCorrupt. alphabet must match the encoder's.
func DecodeLanesRange(dst []uint16, data []byte, alphabet, lo, hi int) (out []uint16, from, decoded int, err error) {
	var r bitio.Reader
	out, d, laneData, err := decodeLanesHeader(&r, dst, data, alphabet)
	if err != nil {
		return nil, 0, 0, err
	}
	defer decoderPool.Put(d)
	n := len(out)
	if lo < 0 || lo > hi || hi > n {
		return nil, 0, 0, fmt.Errorf("%w: range [%d, %d) outside a %d-symbol stream", ErrCorrupt, lo, hi, n)
	}
	whole := lo == 0 && hi == n
	from = hi
	for k := range NumLanes {
		klo, khi := laneBounds(n, k)
		if max(klo, lo) >= min(khi, hi) {
			continue // no symbol of the range in lane k
		}
		from = min(from, klo)
		decoded++
		if whole {
			continue
		}
		var lr bitio.Reader
		lr.Reset(laneData[k])
		if err := decodeStream(d, &lr, out[klo:min(khi, hi)]); err != nil {
			return nil, 0, 0, err
		}
	}
	if whole {
		if err := d.decodeLanesInterleaved(&laneData, out, n); err != nil {
			return nil, 0, 0, err
		}
	}
	return out, from, decoded, nil
}

// decodeLanesInterleaved decodes all NumLanes lanes on the calling
// goroutine in lockstep. The hot loop keeps every lane's bit-reader state
// (accumulator, valid-bit count, byte cursor) in scalar locals so the four
// decode chains stay register-resident and genuinely independent — the CPU
// overlaps the four table loads the single-stream decoder would serialize.
// After a full-word refill of every lane (one bounds check per lane),
// rounds of one symbol per lane run unchecked for as long as every lane
// holds a longest code's worth of bits. The ragged lane tails — and any
// stream too short for a full-word refill — finish on a per-symbol loop
// over the same state that checks every code against the bits left.
func (d *decoder) decodeLanesInterleaved(lanes *[NumLanes][]byte, out []uint16, nn int) error {
	b0, b1, b2, b3 := lanes[0], lanes[1], lanes[2], lanes[3]
	var a0, a1, a2, a3 uint64
	var n0, n1, n2, n3 uint
	var p0, p1, p2, p3 int
	c0, e0 := laneBounds(nn, 0)
	c1, e1 := laneBounds(nn, 1)
	c2, e2 := laneBounds(nn, 2)
	c3, e3 := laneBounds(nn, 3)
	table := &d.table
	mask := uint64(1)<<d.bits - 1
	maxLen := d.maxLen
	minLen := nn / NumLanes // every lane holds at least this many symbols
	for i := 0; i < minLen; {
		if p0+8 > len(b0) || p1+8 > len(b1) || p2+8 > len(b2) || p3+8 > len(b3) {
			break // some lane is in its sub-word tail
		}
		// Refill every lane to >= 56 valid bits (see Reader.Refill: only the
		// advanced-past bytes of the loaded word count as valid).
		w := binary.LittleEndian.Uint64(b0[p0:])
		a0 |= w << n0
		adv := (63 - n0) >> 3
		p0 += int(adv)
		n0 += adv * 8
		a0 &= 1<<n0 - 1
		w = binary.LittleEndian.Uint64(b1[p1:])
		a1 |= w << n1
		adv = (63 - n1) >> 3
		p1 += int(adv)
		n1 += adv * 8
		a1 &= 1<<n1 - 1
		w = binary.LittleEndian.Uint64(b2[p2:])
		a2 |= w << n2
		adv = (63 - n2) >> 3
		p2 += int(adv)
		n2 += adv * 8
		a2 &= 1<<n2 - 1
		w = binary.LittleEndian.Uint64(b3[p3:])
		a3 |= w << n3
		adv = (63 - n3) >> 3
		p3 += int(adv)
		n3 += adv * 8
		a3 &= 1<<n3 - 1
		// Decode rounds until some lane could run short of a longest code.
		for ; i < minLen && min(n0, n1, n2, n3) >= maxLen; i++ {
			t0 := table[a0&mask&rootMask]
			t1 := table[a1&mask&rootMask]
			t2 := table[a2&mask&rootMask]
			t3 := table[a3&mask&rootMask]
			l0 := uint(t0 & 0xff)
			l1 := uint(t1 & 0xff)
			l2 := uint(t2 & 0xff)
			l3 := uint(t3 & 0xff)
			// Codes longer than d.bits miss the table (length 0) and take
			// the limit search; every lane holds at least maxLen bits, so
			// no bit checks are needed on this branch either.
			if l0 == 0 {
				s, l, ok := d.long(a0, t0)
				if !ok {
					return ErrCorrupt
				}
				t0, l0 = uint32(s)<<8, l
			}
			if l1 == 0 {
				s, l, ok := d.long(a1, t1)
				if !ok {
					return ErrCorrupt
				}
				t1, l1 = uint32(s)<<8, l
			}
			if l2 == 0 {
				s, l, ok := d.long(a2, t2)
				if !ok {
					return ErrCorrupt
				}
				t2, l2 = uint32(s)<<8, l
			}
			if l3 == 0 {
				s, l, ok := d.long(a3, t3)
				if !ok {
					return ErrCorrupt
				}
				t3, l3 = uint32(s)<<8, l
			}
			a0 >>= l0
			n0 -= l0
			a1 >>= l1
			n1 -= l1
			a2 >>= l2
			n2 -= l2
			a3 >>= l3
			n3 -= l3
			out[c0] = uint16(t0 >> 8)
			out[c1] = uint16(t1 >> 8)
			out[c2] = uint16(t2 >> 8)
			out[c3] = uint16(t3 >> 8)
			c0++
			c1++
			c2++
			c3++
		}
	}
	// Ragged tails: spill the lane states and finish each lane on the
	// checked per-symbol path (byte-granular refill, explicit bit budget).
	bufs := [NumLanes][]byte{b0, b1, b2, b3}
	accs := [NumLanes]uint64{a0, a1, a2, a3}
	navls := [NumLanes]uint{n0, n1, n2, n3}
	poss := [NumLanes]int{p0, p1, p2, p3}
	curs := [NumLanes]int{c0, c1, c2, c3}
	ends := [NumLanes]int{e0, e1, e2, e3}
	for k := 0; k < NumLanes; k++ {
		b, acc, navl, p := bufs[k], accs[k], navls[k], poss[k]
		for c := curs[k]; c < ends[k]; c++ {
			for navl <= 56 && p < len(b) {
				acc |= uint64(b[p]) << navl
				p++
				navl += 8
			}
			sym, l, ok := d.decodeWord(acc)
			if !ok || l > navl {
				return ErrCorrupt
			}
			acc >>= l
			navl -= l
			out[c] = sym
		}
	}
	return nil
}

// CompressedSizeEstimate returns the entropy-based lower bound, in bytes,
// of Huffman-coding the given counts; used by heuristics and tests.
func CompressedSizeEstimate(counts []uint64) int {
	t := BuildTable(counts)
	var totalBits uint64
	for i, s := range t.syms {
		totalBits += counts[s] * uint64(t.lengths[i])
	}
	return int((totalBits + 7) / 8)
}
