package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// workload is one closed-loop op sequence over the program's public entry
// points. The harness owns the clock, the slices and the counters; the
// workload owns inputs, oracle checks and the program state.
type workload interface {
	// prepare builds what the benchmark owns — oracle inputs, oracles,
	// the pre-generated op sequence with its expected answers. Untimed.
	prepare() error
	// setup builds the program side: generation, cluster or service
	// construction, resident kernels, one verified warm-up op. Timed as
	// setup_s. teardown releases it, stopping every goroutine it started.
	setup(rec *recorder) error
	teardown() error
	// beforeSlice runs untimed and uncounted before the slice starting at
	// op first (cc-wire recycles its cluster here).
	beforeSlice(first int) error
	// op performs op i, verifies the answer and returns the time of the
	// program call alone. An error is a failed op.
	op(i int, rec *recorder, parent openSpan) (time.Duration, error)
	// simMS is the workload's simulated-clock metric after the run.
	simMS() float64
}

// yardReps is how many times each yardstick runs at a slice boundary in a
// full-size run (shape.yardReps; toy shapes use fewer).
const yardReps = 4

// yards holds both yardsticks and every reading of the run.
type yards struct {
	cpu    *yardCPU
	sock   *yardSock
	reps   int // readings of each yardstick per boundary
	cpuMS  []float64
	sockMS []float64
}

func newYards(reps int) (*yards, error) {
	sock, err := newYardSock()
	if err != nil {
		return nil, err
	}
	return &yards{cpu: newYardCPU(), sock: sock, reps: reps}, nil
}

func (y *yards) close() { y.sock.close() }

// boundary is what happens between slices: a forced collection, so no
// slice inherits another's garbage, then both yardsticks, interleaved.
func (y *yards) boundary() error {
	runtime.GC()
	for k := 0; k < y.reps; k++ {
		d, _ := y.cpu.run()
		y.cpuMS = append(y.cpuMS, ms(d))
		d, err := y.sock.run()
		if err != nil {
			return err
		}
		y.sockMS = append(y.sockMS, ms(d))
	}
	return nil
}

// level is how slow the host ran during this run: the geometric mean of
// the two yardsticks' run-means, each over its reference value (1.0 = the
// reference host). Every workload here mixes compute with goroutine and
// socket wake-ups, and host interference slows the two by different
// amounts at different times; over four A/A series one level built from
// both was never the worst choice for any workload, where either single
// yardstick was (README.md). The mean of the readings, not the median: an
// op's wall time sums every burst of interference that fell inside it, so
// the matching yardstick statistic is the one that keeps the bursts in.
func (y *yards) level() float64 {
	return math.Sqrt(mean(y.cpuMS) / yardCPURefMS * mean(y.sockMS) / yardSockRefMS)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// loopResult is what one pass over the op sequence measured.
type loopResult struct {
	opMS      []float64 // successful ops only, in sequence order
	traced    []bool    // whether each opMS entry was recorded as a span
	attempted int
	failed    int
	failures  []string // what the first few failed ops said
	cost      counters // TotalAlloc / wchar / syscw growth around the ops only
}

// maxReportedFailures bounds loopResult.failures: one wrong answer is
// usually followed by the same one on every later op.
const maxReportedFailures = 5

// runLoop drives ops [0, n) in slices of perSlice. Counters are read
// inside the slice, after the boundary work, so yardstick traffic and the
// forced collection never enter them. With alternate set, only every
// other slice records spans.
func runLoop(w workload, n, perSlice int, y *yards, rec *recorder, alternate bool) (*loopResult, error) {
	res := &loopResult{}
	all := rec
	for si, b := range sliceBounds(n, perSlice) {
		rec = all
		if alternate && si%2 == 1 {
			rec = nil
		}
		if err := w.beforeSlice(b[0]); err != nil {
			return nil, fmt.Errorf("before op %d: %w", b[0], err)
		}
		if err := y.boundary(); err != nil {
			return nil, err
		}
		slice := rec.begin("slice", noOp, openSpan{})
		before, err := readCounters()
		if err != nil {
			return nil, err
		}
		for i := b[0]; i < b[1]; i++ {
			res.attempted++
			d, err := w.op(i, rec, slice)
			if err != nil {
				res.failed++
				if len(res.failures) < maxReportedFailures {
					res.failures = append(res.failures, fmt.Sprintf("op %d: %v", i, err))
				}
				continue
			}
			res.opMS = append(res.opMS, ms(d))
			res.traced = append(res.traced, rec != nil)
		}
		after, err := readCounters()
		if err != nil {
			return nil, err
		}
		rec.end(slice)
		delta, err := after.sub(before)
		if err != nil {
			return nil, err
		}
		res.cost.add(delta)
	}
	if err := y.boundary(); err != nil {
		return nil, err
	}
	return res, nil
}

// runResult is one untraced run of one workload: everything the
// end-to-end metrics are made of, raw beside normalised.
type runResult struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	samples   int // successful ops behind op_p50_ms

	yardCPUMS  float64 // run-mean of each yardstick
	yardSockMS float64
	level      float64 // the workload's yardstick level: wall / level = normalised

	// The run's raw series, kept for the A/A dump.
	cpuMS, sockMS, opMS, setupS []float64

	rawSetupS  float64
	rawOpP50MS float64
	rawOpsPerS float64

	metrics map[string]float64 // the seven end-to-end metrics
}

// sockFloorKB keeps sock_kb_per_op off zero where the program opens no
// socket (cc-inproc): the acceptance check divides by the median, and the
// only bytes such a run writes are the Go netpoller's 8-byte eventfd
// wake-ups, a few per run. A reading at the floor means "none".
const sockFloorKB = 1.0

// runUntraced is the end-to-end pass: prepare, set up sh.setups times,
// drive the fixed op sequence, read what the program retains, tear down.
func runUntraced(spec workloadSpec, sh shape, seed uint64, dir string) (*runResult, error) {
	y, err := newYards(sh.yardReps)
	if err != nil {
		return nil, err
	}
	defer y.close()
	w := spec.build(seed, sh, dir)
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", spec.name, err)
	}
	baseline := heapAllocAfterGC()

	var setupS []float64
	for k := 0; k < sh.setups; k++ {
		if k > 0 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("%s: teardown: %w", spec.name, err)
			}
		}
		if err := y.boundary(); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setup(nil); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", spec.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	loop, err := runLoop(w, sh.ops, sh.perSlice, y, nil, false)
	if err != nil {
		_ = w.teardown()
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	resident := heapAllocAfterGC()
	simMS := w.simMS()
	if err := w.teardown(); err != nil {
		return nil, fmt.Errorf("%s: teardown: %w", spec.name, err)
	}
	if len(loop.opMS) == 0 {
		return nil, fmt.Errorf("%s: every op failed, first %s", spec.name, loop.failures[0])
	}

	r := &runResult{
		workload: spec.name, attempted: loop.attempted, failed: loop.failed, failures: loop.failures, samples: len(loop.opMS),
		yardCPUMS: mean(y.cpuMS), yardSockMS: mean(y.sockMS), level: y.level(),
		cpuMS: y.cpuMS, sockMS: y.sockMS, opMS: loop.opMS, setupS: setupS,
	}
	r.rawSetupS = median(setupS)
	r.rawOpP50MS = median(loop.opMS)
	r.rawOpsPerS = float64(len(loop.opMS)) / (sum(loop.opMS) / 1e3)
	ops := float64(loop.attempted)
	residentMB := 0.0
	if resident > baseline {
		residentMB = float64(resident-baseline) / 1e6
	}
	r.metrics = map[string]float64{
		"setup_s":         normalise(r.rawSetupS, r.level),
		"op_p50_ms":       normalise(r.rawOpP50MS, r.level),
		"ops_per_s":       r.rawOpsPerS * r.level,
		"alloc_mb_per_op": float64(loop.cost.alloc) / ops / 1e6,
		"resident_mb":     residentMB,
		"sock_kb_per_op":  math.Max(float64(loop.cost.io.wchar)/ops/1e3, sockFloorKB),
		"sim_ms":          simMS,
	}
	return r, nil
}
