package simmpi

import (
	"fmt"
	"testing"

	"a64fxbench/internal/perfmodel"
	"a64fxbench/internal/units"
)

// BenchmarkSendRecv measures the simulator's message throughput (wall
// time of the runtime itself, not virtual time) on 1 KiB round trips.
func BenchmarkSendRecv(b *testing.B) {
	_, err := Run(cfg(2, 2), func(r *Rank) error {
		for i := 0; i < b.N; i++ {
			if r.ID() == 0 {
				r.Send(1, 1, 1024)
				r.Recv(1, 2)
			} else {
				r.Recv(0, 1)
				r.Send(0, 2, 1024)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllreduce measures the runtime cost of the recursive-doubling
// allreduce of 64 bytes at several rank counts.
func BenchmarkAllreduce(b *testing.B) {
	for _, p := range []int{4, 16, 48} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			nodes := p
			if nodes > 4 {
				nodes = 4
			}
			_, err := Run(cfg(p, nodes), func(r *Rank) error {
				for i := 0; i < b.N; i++ {
					r.Allreduce(64)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCompute measures the pure metering overhead of Compute calls.
func BenchmarkCompute(b *testing.B) {
	w := perfmodel.WorkProfile{
		Class: perfmodel.VectorOp,
		Flops: units.MFlop,
		Bytes: units.MiB,
		Calls: 1,
	}
	_, err := Run(cfg(1, 1), func(r *Rank) error {
		for i := 0; i < b.N; i++ {
			r.Compute(w)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBarrier measures the dissemination barrier.
func BenchmarkBarrier(b *testing.B) {
	_, err := Run(cfg(16, 4), func(r *Rank) error {
		for i := 0; i < b.N; i++ {
			r.Barrier()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
