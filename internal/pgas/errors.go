package pgas

import (
	"errors"
	"fmt"
)

// The runtime's failure classes. A kernel never sees a bare panic
// for a runtime-level failure: every such failure is an *Error carrying one
// of these classes, raised through the barrier-poisoning path and converted
// into an error return by Runtime.RunE. Callers classify with errors.Is:
//
//	_, err := rt.RunE(body)
//	if errors.Is(err, pgas.ErrTimeout) { ... }
var (
	// ErrTransport is a detected loss on a one-sided bulk transfer: the
	// message did not arrive and the payload must be ignored. The modeled
	// transport is reliable-when-healthy, so ErrTransport only arises from
	// the chaos injector.
	ErrTransport = errors.New("transport fault")
	// ErrTimeout is an exhausted retry budget: a transfer or serve phase
	// kept failing past ChaosConfig.MaxAttempts.
	ErrTimeout = errors.New("timeout")
	// ErrCorrupt is a checksum-detected payload corruption: the data
	// arrived but its words cannot be trusted. The modeled links are
	// CRC-protected, so corruption is always detected, never silent.
	ErrCorrupt = errors.New("corrupt payload")
	// ErrMisuse is an API contract violation: an out-of-bounds index, a
	// negative array size, a malformed range. Misuse still panics under
	// plain Run (it is a programming error, not an operational fault), but
	// the panic value is classified so RunE and the verify harness can
	// tell it apart from a transport failure.
	ErrMisuse = errors.New("runtime misuse")
	// ErrEvicted is the permanent loss of a thread: the chaos injector's
	// Kill fault (or a real node death, in the machine the model stands in
	// for) removed it mid-superstep and it will never arrive at another
	// barrier. Unlike the transient classes above there is nothing to
	// retry; recovery means remapping the dead thread's block ownership
	// onto the survivors and rolling back to the last checkpoint (package
	// recover drives that loop).
	ErrEvicted = errors.New("thread evicted")
)

// Error is a classified runtime failure: a class from the Err* set above
// plus the thread, operation, and detail needed to report it. It is the
// panic value of every runtime-raised failure, which is what lets RunE
// convert a thread blow-up into an error return while genuinely unknown
// panics keep crashing through.
type Error struct {
	Class  error  // one of ErrTransport, ErrTimeout, ErrCorrupt, ErrMisuse, ErrEvicted
	Thread int    // issuing thread id, or -1 when not thread-bound
	Op     string // the operation that failed ("GetBulk", "serve GetD", ...)
	Detail string
}

// Error formats the failure with its class and origin.
func (e *Error) Error() string {
	if e.Thread < 0 {
		return fmt.Sprintf("pgas: %s: %v: %s", e.Op, e.Class, e.Detail)
	}
	return fmt.Sprintf("pgas: %s: %v: %s (thread %d)", e.Op, e.Class, e.Detail, e.Thread)
}

// Unwrap exposes the class to errors.Is.
func (e *Error) Unwrap() error { return e.Class }

// Errorf builds a classified error. thread is the issuing thread id (-1
// when not thread-bound); the remaining arguments format the detail.
func Errorf(class error, thread int, op, format string, args ...interface{}) *Error {
	return &Error{Class: class, Thread: thread, Op: op, Detail: fmt.Sprintf(format, args...)}
}

// EvictionError is the region-level outcome RunE returns when one or more
// threads were permanently evicted: every evicted thread's id, in
// ascending order, regardless of which one happened to poison the barrier
// first — so the survivor set (and everything downstream: the remapped
// geometry, the recovery schedule, the soak digest) is a pure function of
// the fault schedule, never of goroutine interleaving.
type EvictionError struct {
	Threads []int // evicted thread ids, ascending
}

// Error names the evicted threads.
func (e *EvictionError) Error() string {
	return fmt.Sprintf("pgas: %v: threads %v lost mid-superstep", ErrEvicted, e.Threads)
}

// Unwrap exposes ErrEvicted to errors.Is.
func (e *EvictionError) Unwrap() error { return ErrEvicted }

// Evicted returns the evicted thread ids when err is (or wraps) an
// EvictionError, and nil otherwise. This is the dispatch point recovery
// supervisors branch on: a non-nil result means the runtime geometry is
// gone and the caller must remap before retrying.
func Evicted(err error) []int {
	var ev *EvictionError
	if errors.As(err, &ev) {
		return ev.Threads
	}
	return nil
}

// Classified reports whether a recovered panic value (or error) carries a
// runtime classification, returning the classified error when it does.
// An EvictionError counts as classified (class ErrEvicted) even though it
// aggregates several threads' failures into one value.
func Classified(v interface{}) (*Error, bool) {
	err, ok := v.(error)
	if !ok {
		return nil, false
	}
	var e *Error
	if errors.As(err, &e) {
		return e, true
	}
	var ev *EvictionError
	if errors.As(err, &ev) {
		t := -1
		if len(ev.Threads) > 0 {
			t = ev.Threads[0]
		}
		return Errorf(ErrEvicted, t, "Run", "%v", ev), true
	}
	return nil, false
}

// Recover converts a classified runtime panic into an error return; it is
// the one-line seam between the panicking kernels and callers that want
// error values (serve.RunKernel, the recovery supervisor's body runner):
//
//	func run(...) (res *cc.Result, err error) {
//		defer pgas.Recover(&err)
//		return cc.Coalesced(...), nil
//	}
//
// Unclassified panics (kernel bugs) propagate unchanged. Must be called
// directly by a deferred function declaration as above.
func Recover(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if e, ok := r.(error); ok {
		var ce *Error
		var ev *EvictionError
		if errors.As(e, &ce) || errors.As(e, &ev) {
			*err = e
			return
		}
	}
	panic(r)
}
