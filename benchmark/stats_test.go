package main

import (
	"math"
	"reflect"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"single", []float64{7}, 0.5, 7},
		{"odd median", []float64{3, 1, 2}, 0.5, 2},
		{"even median interpolates", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"min", []float64{5, 9, 1}, 0, 1},
		{"max", []float64{5, 9, 1}, 1, 9},
		{"p90 of 1..11", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
		{"p25 interpolates", []float64{10, 20, 30, 40}, 0.25, 17.5},
		{"unsorted input untouched", []float64{9, 8, 7, 6, 5}, 0.5, 7},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.xs, c.p, got, c.want)
		}
		if !reflect.DeepEqual(in, c.xs) {
			t.Errorf("%s: input reordered", c.name)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4): the
// acceptance check's arithmetic, not a look-alike.
func TestIQRSpread(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		// quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25]
		{"1..10", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		// quantiles([10, 12, 11, 13], n=4) = [10.25, 11.5, 12.75]
		{"four", []float64{10, 12, 11, 13}, (12.75 - 10.25) / 11.5},
		// quantiles([1, 2], n=4) = [0.75, 1.5, 2.25]
		{"two extrapolate", []float64{1, 2}, (2.25 - 0.75) / 1.5},
		{"constant", []float64{3, 3, 3, 3, 3}, 0},
		{"one", []float64{3}, 0},
	}
	for _, c := range cases {
		if got := iqrSpread(c.xs); !near(got, c.want) {
			t.Errorf("%s: iqrSpread = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestNormalise(t *testing.T) {
	cases := []struct {
		wall, level, want float64
	}{
		{100, 1, 100},   // the reference host itself
		{150, 1.5, 100}, // a host running 1.5x slow reads 1.5x long on both
		{50, 0.5, 100},  // and a fast one
	}
	for _, c := range cases {
		if got := normalise(c.wall, c.level); !near(got, c.want) {
			t.Errorf("normalise(%v, %v) = %v, want %v", c.wall, c.level, got, c.want)
		}
	}
}

// The yardstick level is the geometric mean of the two yardsticks'
// run-means, each over its reference.
func TestYardLevel(t *testing.T) {
	cases := []struct {
		name      string
		cpu, sock []float64
		want      float64
	}{
		{"reference host", []float64{yardCPURefMS}, []float64{yardSockRefMS}, 1},
		{"both twice as slow", []float64{yardCPURefMS, 3 * yardCPURefMS}, []float64{2 * yardSockRefMS}, 2},
		{"one up, one down", []float64{2 * yardCPURefMS}, []float64{yardSockRefMS / 2}, 1},
		{"a burst stays in the mean", []float64{yardCPURefMS, yardCPURefMS, 7 * yardCPURefMS}, []float64{yardSockRefMS, yardSockRefMS, yardSockRefMS}, math.Sqrt(3)},
	}
	for _, c := range cases {
		y := &yards{cpuMS: c.cpu, sockMS: c.sock}
		if got := y.level(); !near(got, c.want) {
			t.Errorf("%s: level = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSliceBounds(t *testing.T) {
	cases := []struct {
		n, per int
		want   [][2]int
	}{
		{0, 4, nil},
		{3, 4, [][2]int{{0, 3}}},
		{8, 4, [][2]int{{0, 4}, {4, 8}}},
		{10, 4, [][2]int{{0, 4}, {4, 8}, {8, 10}}},
		{2, 0, [][2]int{{0, 1}, {1, 2}}},
	}
	for _, c := range cases {
		if got := sliceBounds(c.n, c.per); !reflect.DeepEqual(got, c.want) {
			t.Errorf("sliceBounds(%d, %d) = %v, want %v", c.n, c.per, got, c.want)
		}
	}
}

// The op count follows --seconds in whole slices (whole clusters on
// cc-wire) and never reaches zero: the same --seconds is always the same
// sequence.
func TestShapeScaled(t *testing.T) {
	cases := []struct {
		name    string
		sh      shape
		seconds int
		want    int
	}{
		{"nominal", shape{ops: 60, perSlice: 4}, runSeconds, 60},
		{"half rounds to whole slices", shape{ops: 60, perSlice: 4}, runSeconds / 2, 32},
		{"double", shape{ops: 60, perSlice: 4}, 2 * runSeconds, 120},
		{"floor of one slice", shape{ops: 60, perSlice: 4}, 1, 4},
		{"whole clusters", shape{ops: 30, perSlice: 2, perCluster: 10}, runSeconds / 2, 20},
		{"one cluster at least", shape{ops: 30, perSlice: 2, perCluster: 10}, 1, 10},
	}
	for _, c := range cases {
		if got := c.sh.scaled(c.seconds).ops; got != c.want {
			t.Errorf("%s: scaled(%d).ops = %d, want %d", c.name, c.seconds, got, c.want)
		}
	}
}

func TestParseProcIO(t *testing.T) {
	good := "rchar: 11\nwchar: 442872848\nsyscr: 3\nsyscw: 9001\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
	cases := []struct {
		name    string
		in      string
		want    procIO
		wantErr bool
	}{
		{"proc format", good, procIO{wchar: 442872848, syscw: 9001}, false},
		{"missing syscw", "rchar: 1\nwchar: 2\n", procIO{}, true},
		{"not a number", "wchar: x\nsyscw: 1\n", procIO{}, true},
		{"empty", "", procIO{}, true},
	}
	for _, c := range cases {
		got, err := parseProcIO([]byte(c.in))
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", c.name, err, c.wantErr)
		}
		if got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
	if _, err := readProcIO(); err != nil {
		t.Errorf("reading the live /proc/self/io: %v", err)
	}
}

func TestCounterDeltas(t *testing.T) {
	at := func(alloc, wchar, syscw uint64) counters {
		return counters{alloc: alloc, io: procIO{wchar: wchar, syscw: syscw}}
	}
	cases := []struct {
		name          string
		before, after counters
		want          counters
		wantErr       bool
	}{
		{"growth", at(100, 10, 1), at(350, 18, 4), at(250, 8, 3), false},
		{"no change", at(5, 5, 5), at(5, 5, 5), at(0, 0, 0), false},
		{"alloc backwards", at(100, 0, 0), at(99, 0, 0), counters{}, true},
		{"wchar backwards", at(0, 9, 0), at(0, 8, 0), counters{}, true},
	}
	for _, c := range cases {
		got, err := c.after.sub(c.before)
		if (err != nil) != c.wantErr || got != c.want {
			t.Errorf("%s: sub = %+v, %v; want %+v, err %v", c.name, got, err, c.want, c.wantErr)
		}
	}
	var total counters
	total.add(at(1, 2, 3))
	total.add(at(10, 20, 30))
	if total != at(11, 22, 33) {
		t.Errorf("add: %+v", total)
	}

	// The live counters move when the process allocates and writes.
	before, err := readCounters()
	if err != nil {
		t.Fatal(err)
	}
	sink = make([]byte, 1<<20)
	y, err := newYardSock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := y.run(); err != nil {
		t.Fatal(err)
	}
	y.close()
	after, err := readCounters()
	if err != nil {
		t.Fatal(err)
	}
	d, err := after.sub(before)
	if err != nil {
		t.Fatal(err)
	}
	if d.alloc < 1<<20 {
		t.Errorf("TotalAlloc grew %d after a 1 MiB allocation", d.alloc)
	}
	if want := uint64(2 * yardSockTrips * yardSockBytes); d.io.wchar < want {
		t.Errorf("wchar grew %d after writing %d to sockets", d.io.wchar, want)
	}
	if d.io.syscw < 2*yardSockTrips {
		t.Errorf("syscw grew %d after %d socket writes", d.io.syscw, 2*yardSockTrips)
	}
}

var sink []byte
