package graph

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func roundTripBinary(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	out, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	return out
}

func graphsEqual(a, b *Graph) bool {
	if a.N != b.N || a.M() != b.M() || a.Weighted() != b.Weighted() {
		return false
	}
	for i := range a.U {
		if a.U[i] != b.U[i] || a.V[i] != b.V[i] {
			return false
		}
		if a.Weighted() && a.W[i] != b.W[i] {
			return false
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	cases := map[string]*Graph{
		"empty":      Empty(0),
		"vertices":   Empty(10),
		"unweighted": Random(100, 300, 1),
		"weighted":   WithRandomWeights(Random(100, 300, 1), 2),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			if !graphsEqual(g, roundTripBinary(t, g)) {
				t.Fatal("binary round trip changed the graph")
			}
		})
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("XXXX\x00\x00\x00\x00"),
		"truncated": []byte("PGG1\x00\x00\x00\x00\x05"),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
				t.Fatal("garbage accepted")
			}
		})
	}
}

// parseEdgeList reads back what WriteEdgeList wrote — a "# n <N>" header,
// then "u v" or "u v w" per line — so the writer is checked against the
// graph it was given. (The program itself only writes this format;
// pgasrun reads the binary one.)
func parseEdgeList(t *testing.T, text string) *Graph {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	g := &Graph{}
	if _, err := fmt.Sscanf(lines[0], "# n %d", &g.N); err != nil {
		t.Fatalf("header %q: %v", lines[0], err)
	}
	for _, line := range lines[1:] {
		var u, v int32
		var w uint32
		switch k, _ := fmt.Sscanf(line, "%d %d %d", &u, &v, &w); k {
		case 3:
			g.W = append(g.W, w)
		case 2:
		default:
			t.Fatalf("edge line %q has %d fields", line, k)
		}
		g.U, g.V = append(g.U, u), append(g.V, v)
	}
	return g
}

func TestEdgeListRoundTrip(t *testing.T) {
	for name, g := range map[string]*Graph{
		"unweighted": Random(50, 120, 3),
		"weighted":   WithRandomWeights(Random(50, 120, 3), 4),
		"isolated":   Empty(7),
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteEdgeList(&buf, g); err != nil {
				t.Fatal(err)
			}
			if !graphsEqual(g, parseEdgeList(t, buf.String())) {
				t.Fatal("edge-list round trip changed the graph")
			}
		})
	}
}

func TestWriteDOT(t *testing.T) {
	g := WithRandomWeights(Path(3), 1)
	g2 := Disjoint(g, Empty(1)) // one isolated vertex
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g2, "demo"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`strict graph "demo" {`, "0 -- 1", "label=", "  3;", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	// Unweighted path.
	buf.Reset()
	if err := WriteDOT(&buf, Path(2), ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `strict graph "g" {`) {
		t.Fatal("default name missing")
	}
}
