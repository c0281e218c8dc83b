package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted and is not
// modified. It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// iqrSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method): the
// figure the acceptance check computes.
func iqrSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		// exclusive method: rank i*(n+1)/4 (1-based), clamped to [1, n-1]
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return math.Inf(1)
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// normalise converts a wall time measured on this host into the time the
// reference host would have taken: wall / level, where level is the run's
// yardstick reading over the yardstick's reference value.
func normalise(wall, level float64) float64 { return wall / level }

// sliceBounds cuts ops [0, n) into consecutive slices of perSlice ops (the
// last may be shorter). A run is a fixed op count, so slices are counted
// in ops, never in seconds.
func sliceBounds(n, perSlice int) [][2]int {
	if n <= 0 {
		return nil
	}
	if perSlice < 1 {
		perSlice = 1
	}
	var out [][2]int
	for lo := 0; lo < n; lo += perSlice {
		hi := lo + perSlice
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// procIO is the part of /proc/self/io the benchmark reads: bytes passed
// to write-like syscalls (sockets included) and the number of them.
type procIO struct {
	wchar uint64
	syscw uint64
}

// parseProcIO reads the "key: value" lines of /proc/<pid>/io.
func parseProcIO(data []byte) (procIO, error) {
	var io procIO
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		var dst *uint64
		switch key {
		case "wchar":
			dst = &io.wchar
		case "syscw":
			dst = &io.syscw
		default:
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("proc io: %s: %w", key, err)
		}
		*dst = n
		seen++
	}
	if seen != 2 {
		return procIO{}, fmt.Errorf("proc io: wchar/syscw not both present")
	}
	return io, nil
}

func readProcIO() (procIO, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return procIO{}, err
	}
	return parseProcIO(data)
}

// counters is one reading of the process-wide cost counters.
type counters struct {
	alloc uint64 // MemStats.TotalAlloc
	io    procIO
}

func readCounters() (counters, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	io, err := readProcIO()
	return counters{alloc: ms.TotalAlloc, io: io}, err
}

// sub returns the growth from before to c. All three counters are
// monotone, so a negative delta means a broken reading and is an error.
func (c counters) sub(before counters) (counters, error) {
	if c.alloc < before.alloc || c.io.wchar < before.io.wchar || c.io.syscw < before.io.syscw {
		return counters{}, fmt.Errorf("counter went backwards: %+v -> %+v", before, c)
	}
	return counters{
		alloc: c.alloc - before.alloc,
		io:    procIO{wchar: c.io.wchar - before.io.wchar, syscw: c.io.syscw - before.io.syscw},
	}, nil
}

func (c *counters) add(d counters) {
	c.alloc += d.alloc
	c.io.wchar += d.io.wchar
	c.io.syscw += d.io.syscw
}

// heapAllocAfterGC forces a collection and returns the live heap.
func heapAllocAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
