package graph

import (
	"bytes"
	"testing"
)

// FuzzReadBinary exercises the binary decoder: arbitrary bytes must never
// panic or allocate absurdly, and accepted graphs must validate.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Random(20, 40, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := WriteBinary(&buf, WithRandomWeights(Path(5), 2)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("PGG1"))
	f.Add([]byte("PGG1\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap the claimed edge count indirectly: the decoder must reject
		// headers whose arrays the body cannot back.
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails validation: %v", verr)
		}
	})
}
