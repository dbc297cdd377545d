package memory

import (
	"bytes"
	"testing"
)

// FuzzDiffApplyRoundTrip: for any page pair and word size, the pooled
// diff (DiffCopyWords) applied onto old must rebuild cur, its runs must
// match DiffWords run for run (and DiffWords the byte-loop oracle), and
// a second diff into the first call's recycled storage must give the
// same runs again. The pair is cut to a common length; ws maps onto
// word sizes 1..16, dividing and not dividing 8.
func FuzzDiffApplyRoundTrip(f *testing.F) {
	f.Add([]byte("abcdefgh"), []byte("abcdXfgh"), uint8(3))
	f.Add(bytes.Repeat([]byte{0}, 64), append(bytes.Repeat([]byte{0}, 60), 1, 2, 3, 4), uint8(7))
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{1, 2, 3, 4, 6}, uint8(1))
	f.Fuzz(func(t *testing.T, old, cur []byte, ws uint8) {
		n := min(len(old), len(cur))
		old, cur = old[:n], cur[:n]
		w := 1 + int(ws)%16

		runs, buf := DiffCopyWords(nil, nil, cur, old, w)
		want := DiffWords(cur, old, w)
		if !runsEqual(runs, want) {
			t.Fatalf("w=%d: DiffCopyWords runs %v, DiffWords %v", w, runs, want)
		}
		if ref := diffWordsRef(cur, old, w); !runsEqual(want, ref) {
			t.Fatalf("w=%d: DiffWords runs %v, byte-loop oracle %v", w, want, ref)
		}
		dst := bytes.Clone(old)
		ApplyRuns(dst, runs)
		if !bytes.Equal(dst, cur) {
			t.Fatalf("w=%d: applying the diff onto old gives %x, want %x", w, dst, cur)
		}
		again, _ := DiffCopyWords(runs[:0], buf, cur, old, w)
		if !runsEqual(again, want) {
			t.Fatalf("w=%d: diff into recycled storage gives %v, want %v", w, again, want)
		}
	})
}
