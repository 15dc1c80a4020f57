//go:build !amd64

package main

import "runtime"

// cpuModel names the architecture where no CPUID brand string exists.
func cpuModel() string { return runtime.GOARCH }

// cacheSizes reports unknown cache sizes.
func cacheSizes() (l2, l3 int) { return 0, 0 }
