package pgasgraph

import (
	"testing"
)

// TestKernelsAcrossMachineConfigs runs every kernel family under machine
// variants that exercise different model paths: the modern calibration,
// RDMA, the hierarchical all-to-all, a starved cache, and a tiny node
// memory (paging). Results must be exact under all of them — the model
// changes time, never answers.
func TestKernelsAcrossMachineConfigs(t *testing.T) {
	variants := map[string]func() MachineConfig{
		"paper":  PaperCluster,
		"modern": ModernCluster,
		"rdma": func() MachineConfig {
			c := PaperCluster()
			c.RDMA = true
			return c
		},
		"hierarchical-a2a": func() MachineConfig {
			c := PaperCluster()
			c.HierarchicalA2A = true
			return c
		},
		"starved-cache": func() MachineConfig {
			c := PaperCluster()
			c.CacheBytes = 4096
			return c
		},
		"paging": func() MachineConfig {
			c := PaperCluster()
			c.NodeMemoryBytes = 1 << 16
			return c
		},
	}

	g := RandomGraph(400, 1200, 77)
	wg := WithRandomWeights(g, 78)
	l := RandomChainList(300, 79)
	for name, mk := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := mk()
			cfg.Nodes = 4
			cfg.ThreadsPerNode = 2
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// run checks each answer against the kernel's oracle.
			run(t, c, optimized("cc/coalesced", g, 2))
			run(t, c, optimized("mst/coalesced", wg, 2))
			bfs := optimized("bfs/coalesced", g, 2)
			bfs.Src = 3
			run(t, c, bfs)
			sssp := optimized("sssp/delta-stepping", wg, 2)
			sssp.Src = 3
			run(t, c, sssp)
			run(t, c, KernelSpec{Kernel: "listrank/wyllie", List: l, Col: OptimizedCollectives(2)})
		})
	}
}

// TestSimulatedTimeDeterministic asserts the collective kernels charge
// identical simulated time across repeated runs of the same configuration
// — the property that makes the experiments reproducible.
func TestSimulatedTimeDeterministic(t *testing.T) {
	g := RandomGraph(500, 1500, 9)
	run := func() float64 {
		cfg := PaperCluster()
		cfg.Nodes = 4
		cfg.ThreadsPerNode = 2
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return run(t, c, optimized("cc/coalesced", g, 2)).Run.SimNS
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("simulated time not deterministic: %v vs %v", a, b)
	}
}

// TestPagingSlowsSimulatedTime asserts the paging model changes time (but
// nothing else) when the node memory starves.
func TestPagingSlowsSimulatedTime(t *testing.T) {
	g := RandomGraph(2000, 8000, 11)
	run := func(mem int64) float64 {
		cfg := PaperCluster()
		cfg.Nodes = 1
		cfg.ThreadsPerNode = 4
		if mem > 0 {
			cfg.NodeMemoryBytes = mem
		}
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return run(t, c, KernelSpec{Kernel: "cc/naive", Graph: g}).Run.SimNS // run: paging must not change answers
	}
	fits := run(0)
	paged := run(4096)
	if paged < 100*fits {
		t.Fatalf("paging (%v) not drastically slower than resident (%v)", paged, fits)
	}
}
