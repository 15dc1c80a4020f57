package main

import (
	"encoding/binary"
	"strings"
)

// cpuid executes the CPUID instruction (cpu_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string from CPUID leaves
// 0x80000002–4, so the run header names the CPU without reading any file.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf, 0)
		for _, r := range [4]uint32{a, bx, c, d} {
			b = binary.LittleEndian.AppendUint32(b, r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}

// cacheSizes returns the L2 and L3 data cache sizes in bytes from the
// deterministic cache parameters of CPUID leaf 4, or 0 where the leaf does
// not describe that level.
func cacheSizes() (l2, l3 int) {
	if max, _, _, _ := cpuid(0, 0); max < 4 {
		return 0, 0
	}
	for sub := uint32(0); sub < 16; sub++ {
		a, b, c, _ := cpuid(4, sub)
		kind := a & 0x1f
		if kind == 0 {
			break
		}
		if kind == 2 { // instruction cache
			continue
		}
		ways := int(b>>22) + 1
		parts := int(b>>12&0x3ff) + 1
		line := int(b&0xfff) + 1
		size := ways * parts * line * (int(c) + 1)
		switch a >> 5 & 7 {
		case 2:
			l2 = size
		case 3:
			l3 = size
		}
	}
	return l2, l3
}
