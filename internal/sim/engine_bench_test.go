package sim

// Wall-clock micro-benchmarks for the simulation hot paths: event
// scheduling/dispatch (the typed 4-ary heap) and process switching (the
// two channel handoffs per dispatch). `make bench-smoke` runs these once;
// compare before/after with `go test -bench Engine -benchmem ./internal/sim`.

import (
	"testing"
)

// BenchmarkEngineAtRun measures schedule+dispatch throughput: each
// iteration pushes one event into a standing queue and drains one, the
// steady-state mix of a protocol simulation.
func BenchmarkEngineAtRun(b *testing.B) {
	e := NewEngine()
	depth := 1024
	nop := func() {}
	for i := 0; i < depth; i++ {
		atFn(e, Time(i), nop)
	}
	b.ResetTimer()
	t := Time(depth)
	var scheduled int
	body := func() {
		scheduled++
	}
	for i := 0; i < b.N; i++ {
		atFn(e, t+Time(i), body)
	}
	e.RunUntilQuiet()
	b.ReportMetric(float64(e.Events())/float64(b.N), "events/op")
}

// BenchmarkEventQueuePushPop measures raw heap operations on a deep
// queue with heavy timestamp ties (the tie-break path).
func BenchmarkEventQueuePushPop(b *testing.B) {
	var q eventQueue
	for i := 0; i < 4096; i++ {
		q.push(event{at: Time(i % 64), seq: uint64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.pop()
		e.seq = uint64(4096 + i)
		e.at += 64
		q.push(e)
	}
}

// BenchmarkEventCascade measures a self-rescheduling event chain: the
// pattern of timers and resource completions in the NI model.
func BenchmarkEventCascade(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			afterFn(e, 10, tick)
		}
	}
	afterFn(e, 10, tick)
	b.ResetTimer()
	e.RunUntilQuiet()
	if n != b.N {
		b.Fatalf("ran %d ticks, want %d", n, b.N)
	}
}

// BenchmarkProcSwitch measures a full process dispatch round trip
// (engine -> coroutine -> engine) via 1-tick sleeps.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	e.Go("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.RunUntilQuiet()
}

// BenchmarkProcPingPong measures two processes alternating through a
// mailbox, the protocol-process communication pattern.
func BenchmarkProcPingPong(b *testing.B) {
	e := NewEngine()
	var mbA, mbB Mailbox[int]
	e.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			mbB.Send(1)
			mbA.Recv(p)
		}
	})
	e.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			mbB.Recv(p)
			mbA.Send(1)
		}
	})
	b.ResetTimer()
	e.RunUntilQuiet()
}
