package main

// The two frozen yardsticks. A yardstick is a fixed piece of work timed at
// every slice boundary; dividing a run's wall times by the run-median
// yardstick time turns "ms on this host, right now" into "ms on the
// reference host" and so removes the slow machine-regime drift (noisy
// neighbours) that dominates run-to-run variation here.
//
// FROZEN: nothing in this file may change after the PR that added it — a
// different yardstick is a different unit. It imports nothing from the
// program under test, so no program change can move it.

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

const (
	yardCPUVertices = 1 << 17
	yardCPUEdges    = 1 << 19
	yardCPUSeed     = 0x5ca1ab1e0ddba11
	yardCPUWorkers  = 2

	yardSockTrips = 300
	yardSockBytes = 2048
)

// splitmix is the benchmark's own generator (SplitMix64): yardsticks,
// oracles and op sequences must not depend on the program's RNG.
type splitmix struct{ s uint64 }

func newRand(seed uint64) *splitmix { return &splitmix{s: seed} }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias (< 2^-40 for the sizes
// used here) is irrelevant to a workload generator.
func (r *splitmix) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// split derives an independent stream.
func (r *splitmix) split(stream uint64) *splitmix {
	return newRand(r.next() ^ (stream * 0xd6e8feb86659fd93))
}

// yardCPU is the compute yardstick: union-find connected components with
// path halving over a fixed edge list, run concurrently on two goroutines
// with private parent arrays — the same shape (random access into an
// int-array working set of a few hundred KB per core, both cores busy) as
// the kernels it normalises.
type yardCPU struct {
	u, v   []int32
	parent [yardCPUWorkers][]int32
}

func newYardCPU() *yardCPU {
	y := &yardCPU{u: make([]int32, yardCPUEdges), v: make([]int32, yardCPUEdges)}
	r := newRand(yardCPUSeed)
	for i := range y.u {
		y.u[i] = int32(r.intn(yardCPUVertices))
		y.v[i] = int32(r.intn(yardCPUVertices))
	}
	for w := range y.parent {
		y.parent[w] = make([]int32, yardCPUVertices)
	}
	return y
}

// components runs the frozen kernel on one private parent array and
// returns the component count (the value the unit test pins).
func (y *yardCPU) components(parent []int32) int {
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := len(parent)
	for i := range y.u {
		a, b := find(y.u[i]), find(y.v[i])
		if a == b {
			continue
		}
		if a < b {
			parent[b] = a
		} else {
			parent[a] = b
		}
		comps--
	}
	return comps
}

// run times one yardstick execution and returns it with the component
// count of worker 0.
func (y *yardCPU) run() (time.Duration, int) {
	var wg sync.WaitGroup
	var comps [yardCPUWorkers]int
	start := time.Now()
	for w := range y.parent {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			comps[w] = y.components(y.parent[w])
		}(w)
	}
	wg.Wait()
	return time.Since(start), comps[0]
}

// yardSock is the socket yardstick: a fixed number of fixed-size round
// trips over a unix socket pair between two goroutines — write syscall,
// netpoller wake-up, read syscall each way, which is what a 0.5 ms query
// round trip is made of and what the compute yardstick cannot see.
type yardSock struct {
	a, b net.Conn
	done chan struct{}
	buf  []byte
}

func newYardSock() (*yardSock, error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, fmt.Errorf("yard_sock: socketpair: %w", err)
	}
	conns := make([]net.Conn, 2)
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), fmt.Sprintf("yard-sock-%d", i))
		c, err := net.FileConn(f)
		_ = f.Close() // FileConn dup'ed the descriptor; the original is no longer needed
		if err != nil {
			if conns[0] != nil {
				_ = conns[0].Close()
			}
			return nil, fmt.Errorf("yard_sock: fileconn: %w", err)
		}
		conns[i] = c
	}
	y := &yardSock{a: conns[0], b: conns[1], done: make(chan struct{}), buf: make([]byte, yardSockBytes)}
	go y.echo()
	return y, nil
}

// echo answers every full message with the same bytes until a is closed.
func (y *yardSock) echo() {
	defer close(y.done)
	buf := make([]byte, yardSockBytes)
	for {
		if _, err := io.ReadFull(y.b, buf); err != nil {
			return
		}
		if _, err := y.b.Write(buf); err != nil {
			return
		}
	}
}

// run times yardSockTrips round trips.
func (y *yardSock) run() (time.Duration, error) {
	start := time.Now()
	for i := 0; i < yardSockTrips; i++ {
		y.buf[0] = byte(i)
		if _, err := y.a.Write(y.buf); err != nil {
			return 0, fmt.Errorf("yard_sock: write: %w", err)
		}
		if _, err := io.ReadFull(y.a, y.buf); err != nil {
			return 0, fmt.Errorf("yard_sock: read: %w", err)
		}
		if y.buf[0] != byte(i) {
			return 0, fmt.Errorf("yard_sock: trip %d echoed %d", i, y.buf[0])
		}
	}
	return time.Since(start), nil
}

// close stops the echo goroutine and waits for it.
func (y *yardSock) close() {
	_ = y.a.Close()
	<-y.done
	_ = y.b.Close()
}
