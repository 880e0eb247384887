// Package reqspec is the one request grammar shared by every consumer-facing
// entry point: the bgpsim CLI's flags and the bgpsimd server's JSON bodies
// both fill a Request, and Request.Cell is the only place either is checked
// and turned into a measurement, so a request means the same thing whichever
// door it comes through — and a cached server result is addressable by the
// exact string a CLI user would have typed.
package reqspec

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
)

// Request is one measurement as a user states it: bgpsim's flags, and the
// /v1/run body field for field. Size is bytes for both operations; an
// allreduce's operand is Size/8 doubles.
type Request struct {
	Op    string `json:"op"`    // "bcast" or "allreduce"
	Algo  string `json:"algo"`  // see the listings; "" selects automatically
	Size  string `json:"size"`  // "512", "64K", "2M", ...
	Torus string `json:"torus"` // "DXxDYxDZ"
	Mode  string `json:"mode"`  // smp, dual or quad
	Iters int    `json:"iters"` // micro-benchmark repetitions
	Root  int    `json:"root"`  // broadcast root rank; 0 for allreduce
}

// Defaults returns the request both doors start from: a 1 MB broadcast
// from rank 0 on a quad-mode 8x8x8 midplane, automatic algorithm, one
// iteration. A field the user leaves out keeps its default; a field the
// user sets is taken literally, so an explicit zero is checked as zero.
func Defaults() Request {
	return Request{Op: "bcast", Size: "1M", Torus: "8x8x8", Mode: "quad", Iters: 1}
}

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

// Cell checks q against the request bounds and the algorithm listings and
// returns the measurement it names. Each error names the field at fault.
func (q Request) Cell() (bench.Cell, error) {
	if q.Iters < 1 || q.Iters > MaxIters {
		return bench.Cell{}, fmt.Errorf("iters must be in [1, %d], got %d", MaxIters, q.Iters)
	}
	size, err := ParseSize(q.Size)
	if err != nil {
		return bench.Cell{}, err
	}
	if size < 1 || size > MaxSize {
		return bench.Cell{}, fmt.Errorf("size must be in [1, %d] bytes, got %d", MaxSize, size)
	}
	dx, dy, dz, err := ParseTorus(q.Torus)
	if err != nil {
		return bench.Cell{}, err
	}
	mode, err := ParseMode(q.Mode)
	if err != nil {
		return bench.Cell{}, err
	}
	cfg := hw.DefaultConfig()
	cfg.Torus.DX, cfg.Torus.DY, cfg.Torus.DZ = dx, dy, dz
	cfg.Mode = mode
	cfg.Functional = false
	if err := cfg.Validate(); err != nil {
		return bench.Cell{}, fmt.Errorf("torus %s: %w", q.Torus, err)
	}
	// Each dimension is checked first so the rank product cannot overflow.
	if dx > MaxRanks || dy > MaxRanks || dz > MaxRanks || cfg.Ranks() > MaxRanks {
		return bench.Cell{}, fmt.Errorf("torus %s has more than %d ranks", q.Torus, MaxRanks)
	}
	c := bench.Cell{Experiment: "adhoc", Series: q.Algo, Cfg: cfg, Algo: q.Algo, Iters: q.Iters, Root: q.Root}
	switch q.Op {
	case "bcast":
		if q.Algo != "" && !ValidBcastAlgo(q.Algo) {
			return bench.Cell{}, fmt.Errorf("unknown bcast algo %q (have %v)", q.Algo, BcastAlgorithms())
		}
		if q.Root < 0 || q.Root >= cfg.Ranks() {
			return bench.Cell{}, fmt.Errorf("root must be a rank in [0, %d), got %d", cfg.Ranks(), q.Root)
		}
		c.Kind, c.Arg = bench.CellBcast, size
	case "allreduce":
		if q.Algo != "" && !ValidAllreduceAlgo(q.Algo) {
			return bench.Cell{}, fmt.Errorf("unknown allreduce algo %q (have %v)", q.Algo, AllreduceAlgorithms())
		}
		if q.Root != 0 {
			return bench.Cell{}, fmt.Errorf("root must be 0 for allreduce, got %d", q.Root)
		}
		if size%data.Float64Len != 0 {
			return bench.Cell{}, fmt.Errorf("size of an allreduce must be a multiple of %d bytes, got %d", data.Float64Len, size)
		}
		c.Kind, c.Arg = bench.CellAllreduce, size/data.Float64Len
	default:
		return bench.Cell{}, fmt.Errorf("unknown op %q (bcast or allreduce)", q.Op)
	}
	return c, nil
}

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
		return 0, fmt.Errorf("invalid size %q", in)
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
func ValidBcastAlgo(name string) bool { return slices.Contains(BcastAlgorithms(), name) }

// ValidAllreduceAlgo reports whether name is a selectable allreduce
// algorithm.
func ValidAllreduceAlgo(name string) bool { return slices.Contains(AllreduceAlgorithms(), name) }
