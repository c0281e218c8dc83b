package sched

import (
	"testing"

	"pgasgraph/internal/machine"
	"pgasgraph/internal/pgas"
)

// FuzzGatherScatter drives the access-phase primitives with arbitrary
// request vectors and schedule parameters, pinning two properties:
//
//   - Gather equals the direct loop out[j] = local[idx[j]] and equals
//     Algorithm 1's recursive Reference at every (w, depth);
//   - Scatter's data result is invariant under the virtual-thread count
//     and localcpy flag (they change charges, never values), and matches
//     the combining-rule oracle for every Op.
func FuzzGatherScatter(f *testing.F) {
	f.Add(uint16(1), byte(0), byte(0), byte(1), byte(0), byte(0), []byte{0})
	f.Add(uint16(100), byte(4), byte(1), byte(7), byte(3), byte(1), []byte("fuzzing the access phase"))
	f.Add(uint16(513), byte(8), byte(0), byte(2), byte(2), byte(3), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 128})
	f.Fuzz(func(t *testing.T, ndRaw uint16, vtRaw, lcRaw, wRaw, depthRaw, opRaw byte, payload []byte) {
		nd := int64(ndRaw)%2048 + 1
		vt := int(vtRaw % 9)
		localcpy := lcRaw&1 == 1
		w := int(wRaw%7) + 1
		depth := int(depthRaw % 4)
		op := Op(opRaw % 4)
		k := len(payload) / 2
		idx := make([]int64, k)
		vals := make([]int64, k)
		for i := 0; i < k; i++ {
			idx[i] = (int64(payload[i])*131 + int64(i)) % nd
			vals[i] = int64(int8(payload[k+i]))
		}
		local := make([]int64, nd)
		for i := range local {
			local[i] = int64(i)*2654435761 + 3
		}

		cfg := machine.PaperCluster()
		cfg.Nodes, cfg.ThreadsPerNode = 1, 1
		rt, err := pgas.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.Run(func(th *pgas.Thread) {
			// Gather against the direct loop and the recursive reference.
			out := make([]int64, k)
			Gather(th, local, idx, out, vt, localcpy, nil)
			ref := Reference(local, idx, w, depth)
			for j := 0; j < k; j++ {
				if want := local[idx[j]]; out[j] != want {
					t.Fatalf("Gather[%d] = %d, want %d (vt=%d)", j, out[j], want, vt)
				}
				if ref[j] != out[j] {
					t.Fatalf("Reference[%d] = %d, Gather = %d (w=%d depth=%d)", j, ref[j], out[j], w, depth)
				}
			}

			// Scatter: oracle semantics, and schedule invariance.
			want := append([]int64(nil), local...)
			for j, ix := range idx {
				switch op {
				case OpSet:
					want[ix] = vals[j]
				case OpMin:
					if vals[j] < want[ix] {
						want[ix] = vals[j]
					}
				case OpMax:
					if vals[j] > want[ix] {
						want[ix] = vals[j]
					}
				case OpAdd:
					want[ix] += vals[j]
				}
			}
			got := append([]int64(nil), local...)
			Scatter(th, got, idx, vals, op, vt, localcpy, nil)
			direct := append([]int64(nil), local...)
			Scatter(th, direct, idx, vals, op, 0, false, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Scatter op=%d [%d] = %d, want %d (vt=%d)", op, i, got[i], want[i], vt)
				}
				if direct[i] != got[i] {
					t.Fatalf("Scatter vt-variance at [%d]: direct %d vs vt=%d %d", i, direct[i], vt, got[i])
				}
			}
		})
	})
}
