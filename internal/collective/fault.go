package collective

// Fault names one seeded defect in the collective hot path. The faults are
// the mutation-sensitivity test seam of the differential verification
// harness (internal/verify): each models a realistic way Algorithm 2 goes
// subtly wrong — the kind of bug that corrupts every kernel built on the
// collectives while still terminating — and the harness asserts that its
// oracle battery catches every one of them. The seam is a plain runtime
// flag (no build tags) so verifyrun and the tests exercise exactly the
// shipped code paths.
type Fault int

const (
	// FaultNone disarms the seam (the zero value; production behavior).
	FaultNone Fault = iota
	// FaultDropPermute skips GetD's final permute back to request order:
	// values are delivered in owner-grouped order instead (Algorithm 2
	// step 6 dropped).
	FaultDropPermute
	// FaultMaxInsteadOfMin flips SetDMin's combining rule to maximum —
	// the classic priority-write tie-break inversion.
	FaultMaxInsteadOfMin
	// FaultSegmentOffByOne misaligns the serve phase's view of each
	// peer's request segment by one element (rotated within the segment,
	// so indices stay in bounds and the corruption is silent).
	FaultSegmentOffByOne
	// FaultCorruptPlanPermute swaps two entries of a plan's inverse
	// permutation on reuse — the layout a kernel holds across iterations
	// going stale without a rebuild. One-shot collectives rebuild their
	// scratch plan every call and never reuse, so only a genuine
	// plan-reuse path (and the verify battery's plan-reuse check) can
	// observe it.
	FaultCorruptPlanPermute
	// FaultStalePlanMatrices shifts the published PMatrix offsets by one
	// on a reused plan's serve phase (clamped at zero, so segment views
	// stay in bounds of the requester's buffers) — the classic forgotten
	// re-publish after a request vector changed. Like
	// FaultCorruptPlanPermute it is reuse-gated.
	FaultStalePlanMatrices
	// FaultWrongKeeper answers each duplicate a GetDCombined folded away
	// with the value fetched for the next duplicate's index instead of its
	// own — the fan-out reading the wrong record.
	FaultWrongKeeper
	// FaultWrongRootRank has a roots gather (EdgeList.Gather) relabel each
	// endpoint with the next root's answer: the relabel's rank off by one.
	FaultWrongRootRank
	// FaultUnscattered has PointerJump request each label at the label
	// itself instead of at its position under the array's layout — a
	// translation point of a scattered label array forgotten.
	FaultUnscattered
	// FaultCompactStatic compacts a live edge list created not to shrink:
	// the hook-and-jump rounds' historic mislabel (docs/MODEL.md).
	FaultCompactStatic
)

// AllFaults lists every injectable fault, for iterating a mutation run.
func AllFaults() []Fault {
	return []Fault{FaultDropPermute, FaultMaxInsteadOfMin, FaultSegmentOffByOne, FaultCorruptPlanPermute,
		FaultStalePlanMatrices, FaultWrongKeeper, FaultWrongRootRank, FaultUnscattered, FaultCompactStatic}
}

// String returns the fault's stable name.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDropPermute:
		return "drop-permute"
	case FaultMaxInsteadOfMin:
		return "max-instead-of-min"
	case FaultSegmentOffByOne:
		return "segment-off-by-one"
	case FaultCorruptPlanPermute:
		return "corrupt-plan-permute"
	case FaultStalePlanMatrices:
		return "stale-plan-matrices"
	case FaultWrongKeeper:
		return "wrong-keeper"
	case FaultWrongRootRank:
		return "wrong-root-rank"
	case FaultUnscattered:
		return "unscattered"
	case FaultCompactStatic:
		return "compact-static"
	}
	return "unknown"
}

// InjectFault arms f on this Comm (FaultNone disarms). It must only be
// called between Run regions — never while a collective is in flight.
func (c *Comm) InjectFault(f Fault) { c.fault = f }
