// Package reqspec is the one request grammar shared by every consumer-facing
// entry point: the bgpsim CLI and the bgpsimd server parse sizes, torus
// geometries, node modes, and algorithm names through these functions, so a
// request means the same thing whichever door it comes through — and a
// cached server result is addressable by the exact string a CLI user would
// have typed.
package reqspec

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
)

// Request bounds, enforced at both doors so that no single request can
// exhaust the process's memory or time: MaxRanks is figS's largest partition
// (64x64x64 nodes in quad mode), MaxSize is 1 GiB of payload, and MaxIters
// caps a cell's micro-benchmark repetitions (extrapolation skips steady
// iterations, but tree cells bypass it and run every one).
const (
	MaxRanks = 1 << 20
	MaxSize  = 1 << 30
	MaxIters = 1024
)

// ParseSize parses a byte count with the benchmark axes' K/M suffixes
// ("512", "64K", "2M", case-insensitive, surrounding whitespace ignored). A
// count whose suffix multiply overflows an int is an error.
func ParseSize(s string) (int, error) {
	in := s
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	if n > math.MaxInt/mult || n < math.MinInt/mult {
		return 0, fmt.Errorf("size %q overflows", in)
	}
	return n * mult, nil
}

// ParseTorus parses a partition geometry "DXxDYxDZ" (case-insensitive x).
func ParseTorus(s string) (dx, dy, dz int, err error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("torus must be DXxDYxDZ, got %q", s)
	}
	dims := make([]int, 3)
	for i, p := range parts {
		dims[i], err = strconv.Atoi(p)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("torus dimension %q: %w", p, err)
		}
	}
	return dims[0], dims[1], dims[2], nil
}

// ParseMode parses a node mode name ("smp", "dual", "quad",
// case-insensitive).
func ParseMode(s string) (hw.Mode, error) {
	switch strings.ToLower(s) {
	case "smp":
		return hw.SMP, nil
	case "dual":
		return hw.Dual, nil
	case "quad":
		return hw.Quad, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// BcastAlgorithms lists the registered broadcast algorithm names, sorted.
func BcastAlgorithms() []string { return mpi.BcastAlgorithms() }

// AllreduceAlgorithms lists the allreduce algorithm names a request may
// select.
func AllreduceAlgorithms() []string {
	return []string{mpi.AllreduceTorusNew, mpi.AllreduceTorusCurrent}
}

// ValidBcastAlgo reports whether name is a registered broadcast algorithm.
func ValidBcastAlgo(name string) bool {
	for _, n := range BcastAlgorithms() {
		if n == name {
			return true
		}
	}
	return false
}

// ValidAllreduceAlgo reports whether name is a selectable allreduce
// algorithm.
func ValidAllreduceAlgo(name string) bool {
	for _, n := range AllreduceAlgorithms() {
		if n == name {
			return true
		}
	}
	return false
}
