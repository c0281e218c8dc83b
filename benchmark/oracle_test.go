package main

import (
	"reflect"
	"testing"
)

// Two components: a weighted square 0-1-2-3 with a diagonal, and an edge
// 4-5; vertex 6 is isolated.
//
//	0 --1-- 1
//	|     / |
//	4   1   5
//	| /     |
//	3 --1-- 2
var (
	testU = []int32{0, 1, 2, 3, 1, 4}
	testV = []int32{1, 2, 3, 0, 3, 5}
	testW = []uint32{1, 5, 1, 4, 1, 9}
)

const testN = 7

func TestOracleCC(t *testing.T) {
	f := oracleCC(testN, testU, testV)
	if want := []int64{0, 0, 0, 0, 4, 4, 6}; !reflect.DeepEqual(f.labels(), want) {
		t.Errorf("labels %v, want %v", f.labels(), want)
	}
	if f.comps != 3 {
		t.Errorf("components %d, want 3", f.comps)
	}
	for v, want := range []int64{4, 4, 4, 4, 2, 2, 1} {
		if got := f.compSize(int64(v)); got != want {
			t.Errorf("size of %d's component = %d, want %d", v, got, want)
		}
	}
}

func TestUnionFindIncremental(t *testing.T) {
	f := oracleCC(testN, testU, testV)
	steps := []struct {
		a, b    int32
		comps   int64
		label   int64 // of b afterwards
		size    int64
		sameAs0 bool
	}{
		{5, 6, 2, 4, 3, false}, // isolated vertex joins {4,5}
		{4, 6, 2, 4, 3, false}, // already together: nothing moves
		{6, 2, 1, 0, 7, true},  // the two components merge under the smaller root
	}
	for i, s := range steps {
		f.union(s.a, s.b)
		if f.comps != s.comps || f.label(int64(s.b)) != s.label || f.compSize(int64(s.b)) != s.size {
			t.Errorf("step %d: comps %d label %d size %d, want %d %d %d",
				i, f.comps, f.label(int64(s.b)), f.compSize(int64(s.b)), s.comps, s.label, s.size)
		}
		if got := f.label(0) == f.label(int64(s.b)); got != s.sameAs0 {
			t.Errorf("step %d: same component as 0 = %v", i, got)
		}
	}
}

func TestOracleDistances(t *testing.T) {
	a := buildAdjacency(testN, testU, testV, testW)
	if got, want := oracleBFS(a, 0), []int64{0, 1, 2, 1, -1, -1, -1}; !reflect.DeepEqual(got, want) {
		t.Errorf("bfs from 0: %v, want %v", got, want)
	}
	// 0->3 is 2 via 1 (1+1), not the direct 4; 0->2 is 3 via 1, 3.
	if got, want := oracleDijkstra(a, 0), []int64{0, 1, 3, 2, -1, -1, -1}; !reflect.DeepEqual(got, want) {
		t.Errorf("dijkstra from 0: %v, want %v", got, want)
	}
	if got, want := oracleDijkstra(a, 5), []int64{-1, -1, -1, -1, 9, 0, -1}; !reflect.DeepEqual(got, want) {
		t.Errorf("dijkstra from 5: %v, want %v", got, want)
	}
}

func TestAdjacencyHasEdge(t *testing.T) {
	a := buildAdjacency(testN, testU, testV, nil)
	cases := []struct {
		x, y int64
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {1, 3, true}, {4, 5, true},
		{0, 2, false}, {6, 6, false}, {0, 4, false}, {-1, 0, false}, {0, testN, false},
	}
	for _, c := range cases {
		if got := a.hasEdge(c.x, c.y); got != c.want {
			t.Errorf("hasEdge(%d, %d) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestOracleMSTWeight(t *testing.T) {
	// Square + diagonal: edges of weight 1, 1, 1 span it; 4-5 adds 9.
	if got := oracleMSTWeight(testN, testU, testV, testW); got != 12 {
		t.Errorf("forest weight %d, want 12", got)
	}
}
