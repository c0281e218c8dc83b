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
// regression check can lean on.
type BenchRecord struct {
	Name        string  `json:"name"`
	NSPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	SimMS       float64 `json:"sim_ms,omitempty"`
	// Rounds is the kernel's convergence round count. Round counts are
	// exact, so CompareBench holds them to a one-sided exact bound: a
	// current run may converge in fewer rounds than the baseline (an
	// improvement worth a regenerated baseline) but never more.
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

// CompareBench checks current against baseline and returns one
// human-readable line per regression (empty means pass). Wall-clock numbers
// cross machines, so ns/op may reach wall x baseline (CI uses 3), and
// allocs/op as much plus allocSlack, the few amortized setup allocations
// that land differently run to run; simulated time is exact, so sim_ms is
// held to simTol. Records present only in current are ignored (new
// benchmarks need a regenerated baseline, not a red build); records
// missing from current are reported.
func CompareBench(baseline, current *BenchReport, wall float64) []string {
	const simTol, allocSlack = 1.05, 2
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
		if b.NSPerOp > 0 && c.NSPerOp > b.NSPerOp*wall {
			bad = append(bad, fmt.Sprintf("%s: wall %.0f ns/op > %.1fx baseline %.0f",
				b.Name, c.NSPerOp, wall, b.NSPerOp))
		}
		if c.AllocsPerOp > b.AllocsPerOp*wall+allocSlack {
			bad = append(bad, fmt.Sprintf("%s: %.1f allocs/op > %.1fx baseline %.1f (+%.0f slack)",
				b.Name, c.AllocsPerOp, wall, b.AllocsPerOp, float64(allocSlack)))
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
