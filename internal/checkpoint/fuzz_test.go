package checkpoint

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzCheckpointDecode: an arbitrary payload, framed with a valid
// header and checksum so that parsing reaches the field decoder, must
// either decode or fail with ErrCorrupt/ErrVersion — never panic. A
// payload that decodes must re-encode to the same bytes (the format has
// no slack: every field is fixed-width or length-prefixed and trailing
// bytes are rejected).
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(sampleState().encode())
	f.Add((&State{}).encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := parse(frame(payload))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("error %v wraps neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		if got := st.encode(); !bytes.Equal(got, payload) {
			t.Fatalf("decoded state re-encodes to %x, want %x", got, payload)
		}
	})
}
