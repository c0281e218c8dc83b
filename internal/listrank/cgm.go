package listrank

import (
	"fmt"
	"slices"

	"pgasgraph/internal/collective"
	"pgasgraph/internal/pgas"
	"pgasgraph/internal/sim"
)

// CGM runs the communication-efficient list ranking of Dehne et al. as the
// paper describes it (§II): O(log p) random-mate contraction rounds shrink
// the distributed list until it fits the memory of one node (size <= n/p),
// a sequential algorithm ranks the contracted list on thread 0 — with the
// cache behaviour and idle processors the paper criticizes — and expansion
// rounds (reverse order) recover the spliced-out nodes' ranks.
//
// Contraction invariant: W[i] is the distance from i to its current
// successor S[i] along the original list. A splice u -> v -> w removes v:
// W[u] += W[v], S[u] = S[v], and v remembers (u, old W[u]) so that
// rank[v] = rank[u] - oldW after u's rank is known.
func CGM(rt *pgas.Runtime, comm *collective.Comm, l *List, colOpts *collective.Options) *Result {
	col := collective.Sanitize(colOpts, false) // no offload: inapplicable to list ranking
	n := l.N
	s := rt.NewSharedArray("S", n)
	w := rt.NewSharedArray("W", n)
	splicer := rt.NewSharedArray("Splicer", n)
	offset := rt.NewSharedArray("Offset", n)
	rank := rt.NewSharedArray("Rank", n)
	counts := rt.NewSharedArray("Counts", int64(rt.NumThreads()))
	// Staging area for the gather step: ids, successors, weights.
	stageID := rt.NewSharedArray("StageID", n)
	stageS := rt.NewSharedArray("StageS", n)
	stageW := rt.NewSharedArray("StageW", n)

	const none = int64(-1)
	for i := int64(0); i < n; i++ {
		s.StoreRaw(i, int64(l.Succ[i]))
		if int64(l.Succ[i]) != i {
			w.StoreRaw(i, 1)
		}
		splicer.StoreRaw(i, none)
	}

	sum := pgas.NewReducer(rt)
	p := rt.Nodes()
	target := n / int64(p)
	if target < 1 {
		target = 1
	}
	// Contraction can never remove heads (no predecessor) or tails, so a
	// chain bottoms out at two nodes (one for singletons); clamp the
	// target to what is achievable.
	minAchievable := int64(0)
	isHead := make([]bool, n)
	for i := range isHead {
		isHead[i] = true
	}
	for i := int64(0); i < n; i++ {
		if int64(l.Succ[i]) != i {
			isHead[l.Succ[i]] = false
		}
	}
	for i := int64(0); i < n; i++ {
		if int64(l.Succ[i]) == i {
			minAchievable++ // tail (also covers singleton chains)
		} else if isHead[i] {
			minAchievable++ // non-singleton head
		}
	}
	if target < minAchievable {
		target = minAchievable
	}
	// Every thread counts the same contraction rounds; each records its own
	// and the maximum is reported, so every process of a wire cluster agrees.
	rounds := make([]int, rt.NumThreads())

	run := rt.Run(func(th *pgas.Thread) {
		lo, hi := s.ThreadCover(th.ID)
		span := hi - lo
		th.ChargeSeq(sim.CatWork, 3*span) // init S, W, Splicer

		active := make([]int64, 0, span)
		for i := lo; i < hi; i++ {
			active = append(active, i)
		}
		// removedByRound[r] lists nodes this thread owns that were
		// spliced out in contraction round r (for reverse expansion).
		var removedByRound [][]int64
		reqIdx := make([]int64, 0, span)
		reqNodes := make([]int64, 0, span)
		sv := make([]int64, span)
		wv := make([]int64, span)
		setIdx := make([]int64, 0, span)
		setVal := make([]int64, 0, span)
		setOff := make([]int64, 0, span)
		th.Barrier()

		coin := func(round int, id int64) bool {
			// Deterministic per-(round, node) coin, identical on every
			// thread — no communication needed to learn a peer's coin.
			// Full avalanche (murmur3 finalizer) and a high output bit:
			// low bits of a product stay correlated with the inputs,
			// which would let adjacent equal-parity nodes stall forever.
			x := uint64(id)<<32 ^ uint64(round)
			x ^= x >> 33
			x *= 0xff51afd7ed558ccd
			x ^= x >> 33
			x *= 0xc4ceb9fe1a85ec53
			x ^= x >> 33
			return x>>63 == 1
		}

		// --- Contraction ---
		round := 0
		for {
			size := sum.Sum(th, int64(len(active)))
			if size <= target {
				break
			}
			if round >= maxRounds {
				panic(fmt.Sprintf("listrank: CGM exceeded %d contraction rounds", maxRounds))
			}
			// Candidate splicers: active u with coin(u)=1 whose
			// successor v has coin(v)=0 (v's coin is computable locally).
			reqIdx, reqNodes = reqIdx[:0], reqNodes[:0]
			for _, u := range active {
				v := s.LoadRaw(u)
				if v == u || !coin(round, u) || coin(round, v) {
					continue
				}
				reqIdx = append(reqIdx, v)
				reqNodes = append(reqNodes, u)
			}
			th.ChargeSeq(sim.CatWork, int64(len(active)))

			// Fetch S[v] and W[v] for each candidate.
			k := len(reqIdx)
			comm.GetD(th, s, reqIdx, sv[:k], col, nil)
			comm.GetD(th, w, reqIdx, wv[:k], col, nil)

			// Splice: skip tails (S[v] == v). Publish (splicer, offset)
			// to v's owner, update u locally.
			setIdx, setVal, setOff = setIdx[:0], setVal[:0], setOff[:0]
			for j := 0; j < k; j++ {
				u, v := reqNodes[j], reqIdx[j]
				if sv[j] == v {
					continue // v is a tail; never spliced out
				}
				setIdx = append(setIdx, v)
				setVal = append(setVal, u)
				setOff = append(setOff, w.LoadRaw(u))
				w.StoreRaw(u, w.LoadRaw(u)+wv[j])
				s.StoreRaw(u, sv[j])
			}
			th.ChargeSeq(sim.CatWork, 4*int64(k))
			comm.SetD(th, splicer, setIdx, setVal, col, nil)
			comm.SetD(th, offset, setIdx, setOff, col, nil)

			// Deactivate owned nodes that were spliced out this round.
			removed := []int64{}
			live := active[:0]
			for _, i := range active {
				if splicer.LoadRaw(i) != none {
					removed = append(removed, i)
				} else {
					live = append(live, i)
				}
			}
			active = live
			removedByRound = append(removedByRound, removed)
			th.ChargeSeq(sim.CatWork, int64(len(active)+len(removed)))
			round++
		}

		// --- Gather to thread 0 ---
		// Stage owned actives at the start of this thread's staging block.
		for j, i := range active {
			stageID.StoreRaw(lo+int64(j), i)
			stageS.StoreRaw(lo+int64(j), s.LoadRaw(i))
			stageW.StoreRaw(lo+int64(j), w.LoadRaw(i))
		}
		counts.StoreRaw(int64(th.ID), int64(len(active)))
		th.ChargeSeq(sim.CatWork, 3*int64(len(active)))
		th.Barrier()

		// --- Sequential ranking on thread 0; everyone else idles ---
		if th.ID == 0 {
			sequentialRank(th, rt, counts, stageID, stageS, stageW, rank)
		}
		th.Barrier()

		// --- Expansion (reverse round order) ---
		for rd := len(removedByRound) - 1; rd >= 0; rd-- {
			removed := removedByRound[rd]
			reqIdx = reqIdx[:0]
			for _, v := range removed {
				reqIdx = append(reqIdx, splicer.LoadRaw(v))
			}
			k := len(reqIdx)
			comm.GetD(th, rank, reqIdx, sv[:k], col, nil)
			for j, v := range removed {
				rank.StoreRaw(v, sv[j]-offset.LoadRaw(v))
			}
			th.ChargeSeq(sim.CatWork, 3*int64(k))
			th.Barrier()
		}

		rounds[th.ID] = 2 * len(removedByRound) // contraction + expansion
	})

	return &Result{Ranks: append([]int64(nil), rank.Raw()...), Rounds: slices.Max(rounds), Run: run}
}

// sequentialRank is the CGM's sequential step, run by thread 0 alone: pull
// every peer's staged (id, succ, weight) triples — one coalesced message
// per peer — rank the contracted list with pointer chasing, and scatter
// the ranks back grouped by owner.
func sequentialRank(th *pgas.Thread, rt *pgas.Runtime,
	counts, stageID, stageS, stageW, rank *pgas.SharedArray) {

	sThreads := rt.NumThreads()
	var ids, succs, weights []int64
	for peer := 0; peer < sThreads; peer++ {
		k := counts.LoadRaw(int64(peer))
		if k == 0 {
			continue
		}
		// The staging base is the peer's ThreadCover start — the same base
		// the peer staged its actives at (a thread's actives never outgrow
		// its initial cover, so the triples fit the peer's cover range).
		base, _ := stageID.ThreadCover(peer)
		buf := make([]int64, k)
		th.GetBulk(stageID, base, buf, sim.CatComm)
		ids = append(ids, buf...)
		buf2 := make([]int64, k)
		th.GetBulk(stageS, base, buf2, sim.CatComm)
		succs = append(succs, buf2...)
		buf3 := make([]int64, k)
		th.GetBulk(stageW, base, buf3, sim.CatComm)
		weights = append(weights, buf3...)
	}
	size := int64(len(ids))

	// Sequential ranking of the contracted list: the random access into
	// the id map and the pointer chasing are exactly the deep-memory-
	// hierarchy cost the paper's §I highlights.
	pos := make(map[int64]int64, size)
	for j, id := range ids {
		pos[id] = int64(j)
	}
	isHead := make([]bool, size)
	for j := range isHead {
		isHead[j] = true
	}
	for j := int64(0); j < size; j++ {
		if succs[j] != ids[j] {
			isHead[pos[succs[j]]] = false
		}
	}
	ranks := make([]int64, size)
	path := make([]int64, 0, 1024)
	for h := int64(0); h < size; h++ {
		if !isHead[h] {
			continue
		}
		path = path[:0]
		j := h
		for {
			path = append(path, j)
			next := succs[j]
			if next == ids[j] {
				break
			}
			j = pos[next]
		}
		// Accumulate weighted distances backward from the tail:
		// rank[x] = rank[succ(x)] + w(x).
		ranks[path[len(path)-1]] = 0
		acc := int64(0)
		for d := len(path) - 2; d >= 0; d-- {
			acc += weights[path[d]]
			ranks[path[d]] = acc
		}
	}
	ns, misses := rt.Model().IrregularAccess(5*size, size)
	th.Clock.Charge(sim.CatIrregular, ns)
	th.Clock.CacheMisses += misses

	// Scatter ranks back: group by owner thread, one message per owner,
	// scattered stores at the destination.
	byOwner := make([][]int64, sThreads) // interleaved (id, rank) pairs
	for j := int64(0); j < size; j++ {
		o := rank.Owner(ids[j])
		byOwner[o] = append(byOwner[o], ids[j], ranks[j])
	}
	th.ChargeOps(sim.CatWork, 2*size)
	for o, pairs := range byOwner {
		if len(pairs) == 0 {
			continue
		}
		if !th.SameNode(o) {
			th.ChargeMessage(sim.CatComm, int64(len(pairs))*sim.ElemBytes)
		} else {
			th.ChargeSeq(sim.CatComm, int64(len(pairs)))
		}
		for j := 0; j < len(pairs); j += 2 {
			rank.StoreRaw(pairs[j], pairs[j+1])
		}
		th.ChargeIrregular(sim.CatCopy, int64(len(pairs)/2), rank.NodeSpan())
	}
}
