package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// BenchRecord is one machine-readable benchmark measurement. Wall-clock
// fields (NSPerOp, AllocsPerOp) vary with the host; SimMS is the
// deterministic simulated time of the same run and is the tight signal a
// regression check can lean on — except for records marked Async, whose
// kernel races unsynchronized one-sided ops, so their simulated time
// depends on goroutine scheduling and only a loose comparison is sound.
type BenchRecord struct {
	Name        string  `json:"name"`
	NSPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	SimMS       float64 `json:"sim_ms,omitempty"`
	Async       bool    `json:"async,omitempty"`
	// RacyOps is the measured racy-work count behind an Async record (the
	// naive kernels' convergence iteration count). It lets CompareBench
	// derive the record's tolerance from how much work the run's schedule
	// actually did instead of a fixed loosened bound: a run that did 1.5x
	// the baseline's racy work is allowed ~1.5x the per-unit budget, while
	// a run with identical racy work gets no extra headroom beyond the
	// per-unit factor (Tolerances.SimRacy).
	RacyOps float64 `json:"racy_ops,omitempty"`
	// Rounds is the kernel's convergence round count (the converge/*
	// records). Round counts are deterministic — label evolution under
	// monotone minimum writes is geometry- and scheduling-independent —
	// so CompareBench holds them to a one-sided exact bound: a current
	// run may converge in fewer rounds than the baseline (an improvement
	// worth a regenerated baseline) but never more.
	Rounds float64 `json:"rounds,omitempty"`
}

// BenchReport is the schema of BENCH_collectives.json: the committed
// benchmark baseline that CI compares fresh runs against.
type BenchReport struct {
	// Schema versions the file format; readers reject other versions.
	Schema int `json:"schema"`
	// Config notes describing how the numbers were produced.
	Nodes          int     `json:"nodes"`
	ThreadsPerNode int     `json:"threads_per_node"`
	Calls          int     `json:"calls"`
	Scale          float64 `json:"scale"`
	Seed           uint64  `json:"seed"`

	Records []BenchRecord `json:"records"`
}

// BenchSchema is the current BenchReport schema version.
const BenchSchema = 1

// WriteJSON writes the report as indented JSON with records sorted by
// name, so regenerated baselines diff cleanly.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	sort.Slice(r.Records, func(i, j int) bool { return r.Records[i].Name < r.Records[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBenchReport loads and validates a baseline file.
func ReadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if r.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, r.Schema, BenchSchema)
	}
	return &r, nil
}

// Tolerances for CompareBench. Wall-clock numbers cross machines, so Wall
// is loose (CI uses 3x); simulated time is deterministic, so Sim is tight.
// AllocSlack absorbs the few amortized setup allocations that land
// differently run to run around an allocs/op near zero. Records marked
// Async (scheduling-dependent simulated time) carry RacyOps and use a
// computed tolerance: SimRacy scaled by the racy-work ratio (floored at
// 1), so the bound tracks the schedule the run actually took rather than
// a worst case. SimRacy absorbs the within-iteration variance of a racy
// schedule (cache behavior depends on the racing values) but not
// iteration-count swings, which the ratio covers. An Async record missing
// RacyOps on either side is held to Sim.
type Tolerances struct {
	Wall       float64 // current ns/op may be up to Wall x baseline
	Sim        float64 // current sim_ms may be up to Sim x baseline
	SimRacy    float64 // per-racy-work-unit factor for Async records with RacyOps (0 = use Sim)
	AllocSlack float64 // current allocs/op may exceed Wall x baseline by this
}

// CompareBench checks current against baseline and returns one
// human-readable line per regression (empty means pass). Records present
// only in current are ignored (new benchmarks need a regenerated
// baseline, not a red build); records missing from current are reported.
func CompareBench(baseline, current *BenchReport, tol Tolerances) []string {
	cur := make(map[string]BenchRecord, len(current.Records))
	for _, r := range current.Records {
		cur[r.Name] = r
	}
	var bad []string
	for _, b := range baseline.Records {
		c, ok := cur[b.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: missing from current run", b.Name))
			continue
		}
		if b.NSPerOp > 0 && c.NSPerOp > b.NSPerOp*tol.Wall {
			bad = append(bad, fmt.Sprintf("%s: wall %.0f ns/op > %.1fx baseline %.0f",
				b.Name, c.NSPerOp, tol.Wall, b.NSPerOp))
		}
		if c.AllocsPerOp > b.AllocsPerOp*tol.Wall+tol.AllocSlack {
			bad = append(bad, fmt.Sprintf("%s: %.1f allocs/op > %.1fx baseline %.1f (+%.0f slack)",
				b.Name, c.AllocsPerOp, tol.Wall, b.AllocsPerOp, tol.AllocSlack))
		}
		simTol := tol.Sim
		if b.Async && b.RacyOps > 0 && c.RacyOps > 0 {
			// Scheduling-dependent record with measured racy work on both
			// sides: the per-unit budget grows with the racy-work ratio
			// (never shrinks below one baseline's worth).
			if tol.SimRacy > 0 {
				simTol = tol.SimRacy
			}
			if ratio := c.RacyOps / b.RacyOps; ratio > 1 {
				simTol *= ratio
			}
		}
		if b.SimMS > 0 && c.SimMS > b.SimMS*simTol {
			bad = append(bad, fmt.Sprintf("%s: sim %.3f ms > %.2fx baseline %.3f",
				b.Name, c.SimMS, simTol, b.SimMS))
		}
		if b.Rounds > 0 && c.Rounds > b.Rounds {
			bad = append(bad, fmt.Sprintf("%s: %.0f convergence rounds > baseline %.0f",
				b.Name, c.Rounds, b.Rounds))
		}
	}
	return bad
}
