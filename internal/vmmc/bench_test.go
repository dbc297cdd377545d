package vmmc

// Messaging micro-benchmarks for the pooled packet pipeline. Run with
//
//	go test -run xxx -bench 'Deposit|RemoteFetch|Broadcast' -benchmem ./internal/vmmc
//
// (`make bench-mem`). The allocs/op column is the headline number: the
// typed event path and per-NI packet pools exist to drive it toward
// zero on the steady-state message path.

import (
	"testing"

	"genima/internal/nic"
	"genima/internal/sim"
)

// countDel is an allocation-free Deliverer counting deliveries.
type countDel struct{ n int }

func (d *countDel) Deliver(*nic.Packet) { d.n++ }

// BenchmarkDeposit measures the full seven-stage remote-deposit pipeline
// for a small (64-byte) message: post, source DMA, firmware, fabric,
// destination firmware, destination DMA, delivery callback.
func BenchmarkDeposit(b *testing.B) {
	eng, l, _ := newLayer(4)
	d := &countDel{}
	eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			l.Endpoint(0).DepositTo(p, 1, 64, "bench", nil, d)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunUntilQuiet()
	b.StopTimer()
	if d.n != b.N {
		b.Fatalf("delivered %d of %d deposits", d.n, b.N)
	}
}

// BenchmarkDepositLarge is BenchmarkDeposit with a 16 KB payload split
// into four wire packets, exercising the packet-splitting arithmetic.
func BenchmarkDepositLarge(b *testing.B) {
	eng, l, _ := newLayer(4)
	d := &countDel{}
	eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			l.Endpoint(0).DepositTo(p, 1, 16384, "bench-large", nil, d)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunUntilQuiet()
	b.StopTimer()
	if d.n != b.N {
		b.Fatalf("delivered %d of %d deposits", d.n, b.N)
	}
}

// BenchmarkRemoteFetch measures the firmware-serviced page-fetch round
// trip: 16-byte request, firmware handler at the home NI, 4 KB reply
// DMA'd from host memory, requester blocked throughout.
func BenchmarkRemoteFetch(b *testing.B) {
	eng, l, _ := newLayer(2)
	reply := FetchReply{Payload: nil, Size: 4096}
	l.Endpoint(1).FetchServer = func(FetchReq) FetchReply { return reply }
	done := 0
	eng.Go("fetcher", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			l.Endpoint(0).RemoteFetch(p, 1, 4096, "page-req", "page-reply", 7)
			done++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunUntilQuiet()
	b.StopTimer()
	if done != b.N {
		b.Fatalf("completed %d of %d fetches", done, b.N)
	}
}

// BenchmarkBroadcast measures the NI-broadcast fan-out: one post and one
// source DMA, the fabric replicating onto every other node's in-link,
// one delivery per destination.
func BenchmarkBroadcast(b *testing.B) {
	eng, l, _ := newLayer(8)
	d := &countDel{}
	eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			l.Endpoint(0).DepositBroadcastTo(p, 128, "bench-bcast", nil, d)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunUntilQuiet()
	b.StopTimer()
	if d.n != 7*b.N {
		b.Fatalf("delivered %d of %d broadcast copies", d.n, 7*b.N)
	}
}

// BenchmarkNILock measures one firmware lock acquire+release pair with a
// remote home (node 1) — the NI-lock hot path of the GeNIMA protocol.
func BenchmarkNILock(b *testing.B) {
	eng, l, _ := newLayer(4)
	done := 0
	eng.Go("locker", func(p *sim.Proc) {
		ep := l.Endpoint(2)
		for i := 0; i < b.N; i++ {
			ep.NILockAcquire(p, 1)
			ep.NILockRelease(p, 1, nil, 8)
			done++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunUntilQuiet()
	b.StopTimer()
	if done != b.N {
		b.Fatalf("completed %d of %d lock pairs", done, b.N)
	}
}
