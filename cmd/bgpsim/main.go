// Command bgpsim runs one collective operation on a simulated BG/P partition
// and reports its virtual-time cost, bandwidth, and resource utilization.
//
//	bgpsim -op bcast -algo torus.shaddr -size 2M -torus 8x8x8
//	bgpsim -op allreduce -algo allreduce.current -size 4M -mode smp
//	bgpsim -list
package main

import (
	"flag"
	"fmt"
	"os"

	"bgpcoll"
	"bgpcoll/internal/bench"
	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/serve/reqspec"
	"bgpcoll/internal/trace"
)

func main() {
	op := flag.String("op", "bcast", "collective: bcast or allreduce")
	algo := flag.String("algo", "", "algorithm name (empty = automatic selection)")
	size := flag.String("size", "1M", "message size (bytes, K or M suffix)")
	torus := flag.String("torus", "8x8x8", "torus dimensions DXxDYxDZ")
	mode := flag.String("mode", "quad", "node mode: smp, dual or quad")
	iters := flag.Int("iters", 1, "micro-benchmark iterations")
	root := flag.Int("root", 0, "broadcast root rank")
	list := flag.Bool("list", false, "list registered algorithms and exit")
	traceN := flag.Int("trace", 0, "record and dump up to N schedule events")
	flag.Parse()

	// Registering through the facade keeps the registry initialized once.
	if _, err := bgpcoll.NewJob(bgpcoll.DefaultConfig()); err != nil {
		fmt.Fprintln(os.Stderr, "bgpsim:", err)
		os.Exit(1)
	}
	if *list {
		fmt.Println("broadcast algorithms:")
		for _, n := range reqspec.BcastAlgorithms() {
			fmt.Println("  ", n)
		}
		fmt.Println("allreduce algorithms:")
		for _, n := range reqspec.AllreduceAlgorithms() {
			fmt.Println("  ", n)
		}
		return
	}

	msg, err := reqspec.ParseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgpsim:", err)
		os.Exit(2)
	}
	dx, dy, dz, err := reqspec.ParseTorus(*torus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgpsim:", err)
		os.Exit(2)
	}
	nodeMode, err := reqspec.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgpsim:", err)
		os.Exit(2)
	}
	cfg := hw.DefaultConfig()
	cfg.Torus.DX, cfg.Torus.DY, cfg.Torus.DZ = dx, dy, dz
	cfg.Mode = nodeMode
	cfg.Functional = false
	if err := checkArgs(*iters, *root, msg, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bgpsim:", err)
		os.Exit(2)
	}

	w, err := mpi.NewWorld(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgpsim:", err)
		os.Exit(1)
	}
	if *traceN > 0 {
		w.M.Trace = trace.New(*traceN)
	}
	var elapsed bgpcoll.Time
	switch *op {
	case "bcast":
		w.Tunables.Bcast = *algo
		if *algo == "" {
			w.Tunables = mpi.DefaultTunables()
		}
		elapsed, err = timeOp(w, *iters, func(r *mpi.Rank) func(done func()) {
			buf := r.NewBuf(msg)
			return func(done func()) { r.BcastThen(buf, *root, done) }
		})
	case "allreduce":
		if *algo != "" {
			w.Tunables.Allreduce = *algo
		}
		if msg%data.Float64Len != 0 {
			fmt.Fprintln(os.Stderr, "bgpsim: allreduce size must be a multiple of 8")
			os.Exit(2)
		}
		elapsed, err = timeOp(w, *iters, func(r *mpi.Rank) func(done func()) {
			send := r.NewBuf(msg)
			recv := r.NewBuf(msg)
			return func(done func()) { r.AllreduceSumThen(send, recv, done) }
		})
	default:
		fmt.Fprintf(os.Stderr, "bgpsim: unknown op %q\n", *op)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgpsim:", err)
		os.Exit(1)
	}

	fmt.Printf("partition:  %s torus, %s mode, %d ranks\n", cfg.Torus, cfg.Mode, cfg.Ranks())
	fmt.Printf("operation:  %s %s, %s\n", *op, bench.SizeLabel(msg), orAuto(*algo))
	fmt.Printf("latency:    %v\n", elapsed)
	fmt.Printf("bandwidth:  %.1f MB/s\n", bench.BandwidthMBs(msg, elapsed))
	fmt.Println()
	fmt.Print(w.M.Report(elapsed))
	if *traceN > 0 {
		fmt.Println()
		w.M.Trace.Dump(os.Stdout, *traceN)
	}
}

// checkArgs rejects the values a run cannot honor before any world is
// built, with bgpsimd's bounds: iterations outside [1, reqspec.MaxIters], a
// size outside [1, reqspec.MaxSize], an invalid partition or one of more
// than reqspec.MaxRanks ranks, and a root that is not a rank of the
// partition.
func checkArgs(iters, root, size int, cfg hw.Config) error {
	if iters < 1 || iters > reqspec.MaxIters {
		return fmt.Errorf("-iters must be in [1, %d], got %d", reqspec.MaxIters, iters)
	}
	if size < 1 || size > reqspec.MaxSize {
		return fmt.Errorf("-size must be in [1, %d] bytes, got %d", reqspec.MaxSize, size)
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("-torus %s: %w", cfg.Torus, err)
	}
	// Each dimension is checked first so the rank product cannot overflow.
	t := cfg.Torus
	if t.DX > reqspec.MaxRanks || t.DY > reqspec.MaxRanks || t.DZ > reqspec.MaxRanks || cfg.Ranks() > reqspec.MaxRanks {
		return fmt.Errorf("-torus %s has more than %d ranks", t, reqspec.MaxRanks)
	}
	ranks := cfg.Ranks()
	if root < 0 || root >= ranks {
		return fmt.Errorf("-root must be a rank in [0, %d), got %d", ranks, root)
	}
	return nil
}

// timeOp runs the Fig. 5 loop on every rank of w as a program: iters times
// a barrier, then one timed operation. setup allocates a rank's operands and
// returns its operation. It returns the slowest rank's average.
func timeOp(w *mpi.World, iters int, setup func(r *mpi.Rank) func(done func())) (bgpcoll.Time, error) {
	var worst bgpcoll.Time
	_, err := w.RunProgram(func(r *mpi.Rank) {
		op := setup(r)
		var sum, start bgpcoll.Time
		i := 0
		var iter, timed func()
		timed = func() {
			sum += r.Now() - start
			i++
			iter()
		}
		iter = func() {
			if i == iters {
				if avg := sum / bgpcoll.Time(iters); avg > worst {
					worst = avg
				}
				return
			}
			r.BarrierThen(func() {
				start = r.Now()
				op(timed)
			})
		}
		iter()
	})
	return worst, err
}

func orAuto(algo string) string {
	if algo == "" {
		return "algorithm: auto"
	}
	return "algorithm: " + algo
}
