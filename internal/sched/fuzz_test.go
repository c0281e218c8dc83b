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
//   - Access over the requests cut into two segments behind a base offset
//     gathers what Gather does, scatters what the combining-rule oracle
//     says for every Op, and counts each distinct index as one first
//     touch.
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
		op := Op(opRaw % 3)
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

			// Access, as a serve runs it: the requests cut into two
			// segments read through a base offset, one Scratch across
			// both. The gather equals Gather, a scatter the combining-rule
			// oracle for its Op, and the first touches add up to the
			// distinct indices.
			const base = 1 << 20
			cut := int(wRaw) % (k + 1)
			shifted := make([]int64, k)
			distinct := map[int64]bool{}
			for j, ix := range idx {
				shifted[j] = ix + base
				distinct[ix] = true
			}
			segments := func(local, vals []int64, op Op) int64 {
				var scr Scratch
				return Access(local, shifted[:cut], base, vals[:cut], op, &scr) +
					Access(local, shifted[cut:], base, vals[cut:], op, &scr)
			}
			got := make([]int64, k)
			if touched := segments(local, got, OpGet); touched != int64(len(distinct)) {
				t.Fatalf("Access OpGet counted %d first touches, %d distinct indices", touched, len(distinct))
			}
			for j := range got {
				if got[j] != out[j] {
					t.Fatalf("Access OpGet[%d] = %d, Gather = %d (cut %d)", j, got[j], out[j], cut)
				}
			}
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
				}
			}
			got = append([]int64(nil), local...)
			if touched := segments(got, vals, op); touched != int64(len(distinct)) {
				t.Fatalf("Access op=%d counted %d first touches, %d distinct indices", op, touched, len(distinct))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Access op=%d [%d] = %d, want %d (cut %d)", op, i, got[i], want[i], cut)
				}
			}
		})
	})
}
