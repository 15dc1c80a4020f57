package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"stz/internal/container"
	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/huffman"
	"stz/internal/quant"
)

// The Huffman corpus is the class-stream blobs (docs/FORMAT.md §5) of real
// STZ archives, so the entropy microbenchmarks measure the symbol
// distributions production decodes rather than a synthetic one. Each file
// holds the blobs of one archive as (u32 little-endian length, blob)
// records. Regenerate it after a change to the quantizer or the predictor:
//
//	go test ./internal/bench -run TestHuffmanCorpus -update

// corpusAlphabet is the class-stream alphabet: twice quant.DefaultRadius.
const corpusAlphabet = 2 * quant.DefaultRadius

// huffmanCorpora names the corpus files and the relative bounds of their
// archives: Nyx f32 64³ (seed 1) under core.DefaultConfig.
var huffmanCorpora = []struct {
	name string
	rel  float64
}{
	{"nyx64-1e-3", 1e-3},
	{"nyx64-1e-4", 1e-4},
}

func corpusPath(name string) string { return filepath.Join("testdata", "huffman", name+".bin") }

// corpusBlobs compresses the corpus field at rel and returns the archive's
// class-stream Huffman blobs, in section order.
func corpusBlobs(rel float64) ([][]byte, error) {
	g := datasets.Nyx(64, 64, 64, 1)
	mn, mx := g.Range()
	archive, err := core.Compress(g, core.DefaultConfig(quant.AbsoluteBound(rel, float64(mn), float64(mx))))
	if err != nil {
		return nil, err
	}
	arc, err := container.Open(archive)
	if err != nil {
		return nil, err
	}
	var blobs [][]byte
	// Sections 2.. are the class streams: u32 outlier count, the outliers
	// (4 bytes each for f32), then the Huffman blob.
	for s := 2; s < arc.Count(); s++ {
		sec, err := arc.Section(s)
		if err != nil {
			return nil, err
		}
		skip := 4 + 4*int(binary.LittleEndian.Uint32(sec))
		if skip > len(sec) {
			return nil, fmt.Errorf("class section %d: outliers truncated", s)
		}
		blobs = append(blobs, sec[skip:])
	}
	return blobs, nil
}

func marshalCorpus(blobs [][]byte) []byte {
	var out []byte
	for _, b := range blobs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

func loadCorpus(tb testing.TB, name string) [][]byte {
	tb.Helper()
	data, err := os.ReadFile(corpusPath(name))
	if err != nil {
		tb.Fatal(err)
	}
	var blobs [][]byte
	for len(data) > 0 {
		if len(data) < 4 {
			tb.Fatalf("%s: truncated record header", name)
		}
		n := int(binary.LittleEndian.Uint32(data))
		if 4+n > len(data) {
			tb.Fatalf("%s: truncated record", name)
		}
		blobs = append(blobs, data[4:4+n])
		data = data[4+n:]
	}
	return blobs
}

// TestHuffmanCorpus checks that the committed corpus is what core.Compress
// writes today, byte for byte, and that every blob round-trips through the
// lane codec; with -update it rewrites the corpus instead.
func TestHuffmanCorpus(t *testing.T) {
	for _, c := range huffmanCorpora {
		blobs, err := corpusBlobs(c.rel)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := marshalCorpus(blobs)
		if *update {
			if err := os.MkdirAll(filepath.Dir(corpusPath(c.name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(corpusPath(c.name), want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(corpusPath(c.name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: core.Compress no longer writes the committed class streams", c.name)
		}
		for i, blob := range blobs {
			codes, err := huffman.DecodeLanes(blob, corpusAlphabet, 1)
			if err != nil {
				t.Fatalf("%s blob %d: %v", c.name, i, err)
			}
			if !bytes.Equal(huffman.EncodeLanes(codes, corpusAlphabet), blob) {
				t.Fatalf("%s blob %d: re-encoding differs from the stored blob", c.name, i)
			}
		}
	}
}

// setupCodes is a short stream over 64 distinct codes, all below 1024, so
// the same stream can be coded at alphabet 1,024 and 65,536: per-blob
// set-up dominates its cost, and set-up must not grow with the alphabet.
func setupCodes() []uint16 {
	codes := make([]uint16, 1024)
	for i := range codes {
		codes[i] = uint16(480 + i*37%64)
	}
	return codes
}

// BenchmarkHuffmanDecodeReal decodes the class streams of real archives
// (one op decodes every blob of a corpus file, one worker, as a box query
// does), plus the 64-code set-up stream at two alphabet sizes.
func BenchmarkHuffmanDecodeReal(b *testing.B) {
	for _, c := range huffmanCorpora {
		blobs := loadCorpus(b, c.name)
		var dst []uint16
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var codes int
			for i := 0; i < b.N; i++ {
				codes = 0
				for _, blob := range blobs {
					out, err := huffman.DecodeLanesInto(dst[:0], blob, corpusAlphabet, 1)
					if err != nil {
						b.Fatal(err)
					}
					dst = out
					codes += len(out)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(codes), "ns/code")
		})
	}
	blob := huffman.EncodeLanes(setupCodes(), 1024)
	dst := make([]uint16, len(setupCodes()))
	for _, alphabet := range []int{1024, corpusAlphabet} {
		b.Run(fmt.Sprintf("codes64-alphabet%d", alphabet), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := huffman.DecodeLanesInto(dst[:0], blob, alphabet, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHuffmanEncodeReal re-encodes the class streams of real
// archives (one op encodes every blob of a corpus file), plus the 64-code
// set-up stream at two alphabet sizes.
func BenchmarkHuffmanEncodeReal(b *testing.B) {
	for _, c := range huffmanCorpora {
		var streams [][]uint16
		var total int
		for _, blob := range loadCorpus(b, c.name) {
			codes, err := huffman.DecodeLanes(blob, corpusAlphabet, 1)
			if err != nil {
				b.Fatal(err)
			}
			streams = append(streams, codes)
			total += len(codes)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, codes := range streams {
					huffman.EncodeLanes(codes, corpusAlphabet)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/code")
		})
	}
	codes := setupCodes()
	for _, alphabet := range []int{1024, corpusAlphabet} {
		b.Run(fmt.Sprintf("codes64-alphabet%d", alphabet), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				huffman.EncodeLanes(codes, alphabet)
			}
		})
	}
}
