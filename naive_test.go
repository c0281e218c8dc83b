package pgasgraph

import (
	"runtime"
	"testing"
)

// TestNaiveDeterministic holds the one-sided naive kernels to exact
// simulated numbers: their threads take a clock-ordered turn through every
// single-word access, so SimNS, Iterations, RemoteOps and Messages are the
// same bits on every run and under every GOMAXPROCS, on one SMP node and
// on a cluster, and every run's labels or forest pass the kernel's oracle.
func TestNaiveDeterministic(t *testing.T) {
	runs := 10
	if testing.Short() {
		runs = 3
	}
	g := RandomGraph(100000, 400000, 1)
	inputs := map[string]*Graph{"cc/naive": g, "mst/naive": WithRandomWeights(g, 2)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, geo := range [][2]int{{1, 16}, {4, 2}} {
		cfg := PaperCluster()
		cfg.Nodes, cfg.ThreadsPerNode = geo[0], geo[1]
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, kernel := range []string{"cc/naive", "mst/naive"} {
			type numbers struct {
				sim                 float64
				iters               int
				remoteOps, messages int64
			}
			var first numbers
			for i := range runs {
				procs := []int{1, 2, 8}[i%3]
				runtime.GOMAXPROCS(procs)
				res := run(t, c, KernelSpec{Kernel: kernel, Graph: inputs[kernel]})
				got := numbers{res.Run.SimNS, res.Iterations, res.Run.RemoteOps, res.Run.Messages}
				if i == 0 {
					first = got
					t.Logf("%s %dx%d: %.4f ms, %d iterations, %d remote ops, %d messages",
						kernel, geo[0], geo[1], got.sim/1e6, got.iters, got.remoteOps, got.messages)
				} else if got != first {
					t.Errorf("%s %dx%d run %d (GOMAXPROCS %d): %+v, run 0 read %+v",
						kernel, geo[0], geo[1], i, procs, got, first)
				}
			}
		}
	}
}
