package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"genima/internal/sim"
)

// FuzzLatencyMergeQuantile: arbitrary samples (8 little-endian bytes
// each, shifted right by shift%64 so every magnitude is reachable),
// split at split between two recorders and merged, must give the same
// state as recording them all into one, and every quantile must bound
// the sort oracle's exact quantile from above. Below the catch-all top
// bucket the bound is tight to one sub-bucket (12.5%); in the
// catch-all bucket the reported bound is the exact Max.
func FuzzLatencyMergeQuantile(f *testing.F) {
	const maxFuzzSamples = 64
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 200, 0, 0, 0, 0, 0, 0, 0}, uint8(1), uint8(0), uint16(499))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 7, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0}, uint8(2), uint8(0), uint16(998))
	f.Add(make([]byte, 64), uint8(3), uint8(12), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, split, shift uint8, qsel uint16) {
		// More samples add no coverage, and the fuzzer's minimization
		// of each new find is quadratic in the bytes that matter.
		data = data[:min(len(data), 8*maxFuzzSamples)]
		samples := make([]sim.Time, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			v := sim.Time(binary.LittleEndian.Uint64(data) >> (shift % 64))
			samples = append(samples, max(v, 0)) // Record clamps negatives to 0
		}
		k := int(split) % (len(samples) + 1)
		var a, b, all LatencyRecorder
		for i, v := range samples {
			all.Record(v)
			if i < k {
				a.Record(v)
			} else {
				b.Record(v)
			}
		}
		a.Merge(&b)
		if a != all {
			t.Fatalf("merge of %d+%d samples differs from recording all %d", k, len(samples)-k, len(samples))
		}
		if len(samples) == 0 {
			if q := a.Quantile(0.5); q != 0 {
				t.Fatalf("empty recorder Quantile = %d, want 0", q)
			}
			return
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		topLow := latBucketUpper(latBuckets - 2) // catch-all bucket's lower bound
		for _, q := range []float64{float64(qsel%1000+1) / 1000, 0.5, 0.99, 0.999, 1} {
			exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
			got := a.Quantile(q)
			if got < exact {
				t.Fatalf("Quantile(%v) = %d below the exact %d", q, got, exact)
			}
			if exact >= topLow {
				if got != a.Max() {
					t.Fatalf("Quantile(%v) = %d in the catch-all bucket, want Max %d", q, got, a.Max())
				}
			} else if float64(got) > float64(exact)*1.125+1 {
				t.Fatalf("Quantile(%v) = %d exceeds exact %d by more than 12.5%%", q, got, exact)
			}
		}
		if a.Quantile(1) != a.Max() {
			t.Fatalf("Quantile(1) = %d, want Max %d", a.Quantile(1), a.Max())
		}
	})
}
