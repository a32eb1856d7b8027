package statespace

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/scheduler"
)

// assertSpaceEqual checks bit-equality of every persisted field.
func assertSpaceEqual(t *testing.T, want, got *Space) {
	t.Helper()
	if want.States != got.States {
		t.Fatalf("States = %d, want %d", got.States, want.States)
	}
	if !slices.Equal(want.Legit, got.Legit) {
		t.Fatal("Legit vectors differ")
	}
	if !slices.Equal(want.off, got.off) {
		t.Fatal("off arrays differ")
	}
	if !slices.Equal(want.succ, got.succ) {
		t.Fatal("succ arrays differ")
	}
	// Equality on float64 is value-semantics; compare raw bits to pin
	// exact round-tripping.
	if len(want.prob) != len(got.prob) {
		t.Fatalf("prob length %d, want %d", len(got.prob), len(want.prob))
	}
	for i := range want.prob {
		if math.Float64bits(want.prob[i]) != math.Float64bits(got.prob[i]) {
			t.Fatalf("prob[%d] = %x, want %x", i, math.Float64bits(got.prob[i]), math.Float64bits(want.prob[i]))
		}
	}
	if !slices.Equal(want.Globals(), got.Globals()) {
		t.Fatal("Globals vectors differ")
	}
	// The rebuilt table must answer lookups exactly like the original.
	for s := range want.States {
		if g := want.GlobalIndex(s); got.LocalIndex(g) != int32(s) {
			t.Fatalf("LocalIndex(%d) = %d, want %d", g, got.LocalIndex(g), s)
		}
	}
}

func TestSpaceRoundTrip(t *testing.T) {
	for _, tc := range frontierMatrix(t) {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := BuildContext(context.Background(), tc.alg, tc.pol, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			n, err := sp.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
			}
			got, err := ReadSpace(bytes.NewReader(buf.Bytes()), tc.alg, tc.pol, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertSpaceEqual(t, sp, got)
		})
	}
}

func TestSubSpaceRoundTrip(t *testing.T) {
	for _, tc := range frontierMatrix(t) {
		t.Run(tc.name, func(t *testing.T) {
			// Seed with the legitimate set: a nontrivial strict subspace.
			full, err := BuildContext(context.Background(), tc.alg, tc.pol, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var seeds []int64
			for s, ok := range full.Legit {
				if ok {
					seeds = append(seeds, int64(s))
				}
			}
			ss, err := BuildFromContext(context.Background(), tc.alg, tc.pol, seeds, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := ss.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadSpace(bytes.NewReader(buf.Bytes()), tc.alg, tc.pol, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertSpaceEqual(t, ss, got)
		})
	}
}

// serializedFixture returns a valid serialized space and its instance.
func serializedFixture(t *testing.T) ([]byte, *Space) {
	t.Helper()
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := BuildContext(context.Background(), ring, scheduler.CentralPolicy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sp
}

func TestReadRejectsTruncation(t *testing.T) {
	data, sp := serializedFixture(t)
	// Cut at a spread of prefix lengths: empty, mid-header, each section
	// boundary neighborhood, and one byte short of complete.
	cuts := []int{0, 3, 17, 31, 32, 40, len(data) / 3, len(data) / 2, len(data) - 9, len(data) - 1}
	for _, cut := range cuts {
		if _, err := ReadSpace(bytes.NewReader(data[:cut]), sp.Alg, sp.Pol, 0, 0); err == nil {
			t.Fatalf("truncation at %d of %d bytes not rejected", cut, len(data))
		}
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	data, sp := serializedFixture(t)
	// Flip one byte at a spread of offsets past the header (header
	// corruption is caught by its own validation; payload corruption must
	// be caught by the checksum).
	for _, at := range []int{40, len(data) / 4, len(data) / 2, len(data) - 12} {
		bad := bytes.Clone(data)
		bad[at] ^= 0x40
		if _, err := ReadSpace(bytes.NewReader(bad), sp.Alg, sp.Pol, 0, 0); err == nil {
			t.Fatalf("corrupted byte at %d not rejected", at)
		}
	}
	// Corrupting the stored checksum itself must also fail.
	bad := bytes.Clone(data)
	bad[len(bad)-1] ^= 0x01
	if _, err := ReadSpace(bytes.NewReader(bad), sp.Alg, sp.Pol, 0, 0); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatal("corrupted trailer checksum not rejected as a checksum mismatch")
	}
}

func TestReadRejectsVersionMismatch(t *testing.T) {
	data, sp := serializedFixture(t)
	bad := bytes.Clone(data)
	binary.LittleEndian.PutUint16(bad[4:6], SerialVersion+1)
	_, err := ReadSpace(bytes.NewReader(bad), sp.Alg, sp.Pol, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not rejected, err=%v", err)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	data, sp := serializedFixture(t)
	bad := bytes.Clone(data)
	bad[0] = 'X'
	if _, err := ReadSpace(bytes.NewReader(bad), sp.Alg, sp.Pol, 0, 0); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatal("bad magic not rejected")
	}
}

// TestReadRejectsKindMismatch pins the kind byte: a kind the format does
// not define is refused at the header, and a full-space stream relabeled
// as a frontier stream (checksum refreshed) is refused too — its missing
// Globals section cannot be read.
func TestReadRejectsKindMismatch(t *testing.T) {
	data, sp := serializedFixture(t)
	bad := bytes.Clone(data)
	bad[6] = 2
	if _, err := ReadSpace(bytes.NewReader(bad), sp.Alg, sp.Pol, 0, 0); err == nil ||
		!strings.Contains(err.Error(), "kind") {
		t.Fatalf("unknown kind accepted, err=%v", err)
	}
	bad[6] = kindFrontier
	refreshCRC(bad)
	if _, err := ReadSpace(bytes.NewReader(bad), sp.Alg, sp.Pol, 0, 0); err == nil {
		t.Fatal("full-space stream accepted as a frontier space")
	}
}

// TestSerialBytesStable pins the SHA-256 of WriteTo for one system of each
// kind to the digests of format version 2 as first written, so a change
// to the writer that alters the bytes on disk fails here instead of
// silently invalidating existing cache entries without a SerialVersion
// bump.
func TestSerialBytesStable(t *testing.T) {
	_, _, full := testSpaceBytes(t)
	_, _, frontier := testFrontierBytes(t)
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"tokenring(4) central full space", full, "3f946e5a37be3808065d3219db559d170607c73f90c6ac4342076f89b790fcb0"},
		{"tokenring(5) central frontier from {0,1,7,13}", frontier, "6e529660a73ab3b8415807d3e48861c5d872b92fe9586facac253ea994b12254"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.data)); got != c.want {
			t.Errorf("%s: WriteTo SHA-256 %s, want %s", c.name, got, c.want)
		}
	}
}

func TestReadRejectsWrongInstance(t *testing.T) {
	data, _ := serializedFixture(t) // tokenring n=5
	ring6, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSpace(bytes.NewReader(data), ring6, scheduler.CentralPolicy{}, 0, 0); err == nil {
		t.Fatal("n=5 stream accepted for an n=6 instance")
	}
}

// TestSubSpaceReadAnalysesMatch pins that a loaded subspace is
// indistinguishable from the built one under the analyses: identical
// reverse CSR and identical decoded configurations.
func TestSubSpaceReadAnalysesMatch(t *testing.T) {
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.DistributedPolicy{}
	ss, err := BuildFromContext(context.Background(), ring, pol, []int64{0, 1, 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ss.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpace(bytes.NewReader(buf.Bytes()), ring, pol, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantRev, gotRev := ss.Reverse(), got.Reverse()
	if !reflect.DeepEqual(wantRev, gotRev) {
		t.Fatal("reverse CSR differs between built and loaded subspace")
	}
	for s := 0; s < ss.NumStates(); s++ {
		if !ss.Config(s).Equal(got.Config(s)) {
			t.Fatalf("Config(%d) differs", s)
		}
	}
}
