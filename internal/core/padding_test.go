package core

import (
	"testing"
	"unsafe"
)

// TestCPULocalPadding pins cpuLocal to 256 bytes, two 128-byte cache
// line pairs (covering adjacent-line prefetch), so neighbouring CPUs'
// hot state never false-shares. The struct's pad field must shrink or
// grow whenever fields change.
func TestCPULocalPadding(t *testing.T) {
	if s := unsafe.Sizeof(cpuLocal{}); s != 256 {
		t.Fatalf("cpuLocal is %d bytes, want 256 — resize its pad field", s)
	}
}
