// Package trace profiles collective communication from the one record
// the collectives report, a collective.Call per thread per execution:
// per-kind simulated-time breakdowns, the server→requester transfer
// matrix, per-thread serve loads and the plan build:reuse ratio. It is the
// tooling equivalent of the profiling the paper leans on in §VI
// ("profiling the codes shows that the majority of the degradation comes
// from line 3 in Algorithm 2") — attach a Collector to a Comm and the
// hotspot structure of a run becomes visible.
package trace

import (
	"fmt"
	"sort"
	"sync"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/report"
	"pgasgraph/internal/sim"
)

// Collector aggregates collective-call profiles. Safe for concurrent use
// by all runtime threads. Attach with collective.(*Comm).SetTracer.
type Collector struct {
	mu         sync.Mutex
	threads    int
	calls      map[string]*callStats
	pairElems  map[[2]int]int64 // (server, requester) -> elements served
	serveLoad  []int64          // per server thread
	planBuilds int64            // executions that ran phase 1 (grouping sort + matrix publish) first
	planReuses int64            // executions of a plan an earlier call built
}

type callStats struct {
	count     int64
	breakdown sim.Breakdown
	elements  int64 // requests offered by the callers
	kept      int64 // requests delivered to the owners after the request filter
	wallNS    int64 // summed host wall-clock across participants
	growths   int64 // summed scratch backing-array allocations
}

// NewCollector returns a collector for a runtime with the given thread
// count.
func NewCollector(threads int) *Collector {
	return &Collector{
		threads:   threads,
		calls:     map[string]*callStats{},
		pairElems: map[[2]int]int64{},
		serveLoad: make([]int64, threads),
	}
}

// Collective folds one thread's report of one collective execution into
// the aggregates: the kind's call count, simulated-time breakdown, offered
// and delivered requests, wall time and scratch growths; a plan build or
// reuse; and the elements the thread served each requester.
func (c *Collector) Collective(call collective.Call) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.calls[call.Kind]
	if !ok {
		st = &callStats{}
		c.calls[call.Kind] = st
	}
	st.count++
	st.breakdown.Add(&call.Delta)
	st.elements += call.Offered
	st.kept += call.Kept
	st.wallNS += call.Wall.Nanoseconds()
	st.growths += call.Growths
	if call.Reused {
		c.planReuses++
	} else {
		c.planBuilds++
	}
	for requester, elems := range call.Served {
		if elems != 0 {
			c.pairElems[[2]int{call.Thread, requester}] += elems
			c.serveLoad[call.Thread] += elems
		}
	}
}

// PlanBuilds returns the recorded executions of a fresh build (per thread).
func (c *Collector) PlanBuilds() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planBuilds / int64(c.threads)
}

// PlanReuses returns the recorded executions of a reused plan (per thread).
func (c *Collector) PlanReuses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planReuses / int64(c.threads)
}

// Reset clears all aggregates.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = map[string]*callStats{}
	c.pairElems = map[[2]int]int64{}
	for i := range c.serveLoad {
		c.serveLoad[i] = 0
	}
	c.planBuilds = 0
	c.planReuses = 0
}

// CollectiveTable renders per-kind call counts and category breakdowns
// (per-thread-call averages, in ms).
func (c *Collector) CollectiveTable() *report.Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := report.NewTable("Collective profile (per-participant averages, ms)",
		"collective", "calls", "elems/call", "kept %", "comm", "sort", "copy", "irregular", "setup", "work", "wait", "wall µs", "grows")
	kinds := make([]string, 0, len(c.calls))
	for k := range c.calls {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		st := c.calls[k]
		avg := st.breakdown
		avg.Scale(1 / float64(st.count))
		t.AddRow(k,
			fmt.Sprint(st.count/int64(c.threads)),
			report.Count(st.elements/st.count),
			keptPercent(st),
			report.MS(avg[sim.CatComm]),
			report.MS(avg[sim.CatSort]),
			report.MS(avg[sim.CatCopy]),
			report.MS(avg[sim.CatIrregular]),
			report.MS(avg[sim.CatSetup]),
			report.MS(avg[sim.CatWork]),
			report.MS(avg[sim.CatWait]),
			fmt.Sprintf("%.1f", float64(st.wallNS)/float64(st.count)/1e3),
			fmt.Sprint(st.growths))
	}
	return t
}

// keptPercent renders the share of offered requests that reached the
// owners: below 100 where the offload filter dropped some, a one-shot
// SetDMin combined duplicates, or a GetD on label values (GetDCombined)
// asked each index once.
func keptPercent(st *callStats) string {
	if st.elements == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(st.kept)/float64(st.elements))
}

// WallNS returns the summed host wall-clock nanoseconds recorded for kind
// across all participants, 0 for an unrecorded kind.
func (c *Collector) WallNS(kind string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.calls[kind]; ok {
		return st.wallNS
	}
	return 0
}

// LoadTable renders the serve-load distribution and the hottest transfer
// pairs — where communication hotspots (the paper's thr_0 problem) show
// up.
func (c *Collector) LoadTable(topK int) *report.Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := report.NewTable("Serve-load distribution", "metric", "value")
	var total, max int64
	maxThread := 0
	for th, l := range c.serveLoad {
		total += l
		if l > max {
			max = l
			maxThread = th
		}
	}
	avg := float64(total) / float64(len(c.serveLoad))
	t.AddRow("total served elements", report.Count(total))
	t.AddRow("avg per thread", report.Count(int64(avg)))
	t.AddRow(fmt.Sprintf("max per thread (thread %d)", maxThread), report.Count(max))
	if avg > 0 {
		t.AddRow("imbalance (max/avg)", report.Ratio(float64(max)/avg))
	}

	type pair struct {
		key   [2]int
		elems int64
	}
	pairs := make([]pair, 0, len(c.pairElems))
	for k, v := range c.pairElems {
		pairs = append(pairs, pair{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].elems != pairs[j].elems {
			return pairs[i].elems > pairs[j].elems
		}
		return pairs[i].key[0] < pairs[j].key[0] ||
			(pairs[i].key[0] == pairs[j].key[0] && pairs[i].key[1] < pairs[j].key[1])
	})
	for i := 0; i < topK && i < len(pairs); i++ {
		t.AddRow(fmt.Sprintf("hot pair #%d: server %d <- requester %d",
			i+1, pairs[i].key[0], pairs[i].key[1]),
			report.Count(pairs[i].elems))
	}
	return t
}

// Imbalance returns max/avg serve load (1.0 = perfectly balanced).
func (c *Collector) Imbalance() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total, max int64
	for _, l := range c.serveLoad {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(len(c.serveLoad)) / float64(total)
}

// Calls returns the number of calls recorded for kind (per thread).
func (c *Collector) Calls(kind string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.calls[kind]
	if !ok {
		return 0
	}
	return st.count / int64(c.threads)
}
