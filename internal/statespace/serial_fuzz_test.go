package statespace

// Native fuzzing of the serialization readers. The frontier/dedup/serial
// stack feeds every cached analysis, so the contract under hostile bytes
// must be absolute: an arbitrary mutation of a serialized space either
// fails cleanly (an error — wrong magic, shape violation, checksum
// mismatch) or decodes to a system whose re-serialization reproduces the
// input bytes exactly (the CRC-32C passed, so the payload was untouched).
// Panics, hangs and silently-wrong spaces are all failures. Seeds are
// valid serializations of small explored systems — a full space for the
// *Space targets, a frontier space with its Globals section for the
// *SubSpace ones — and the fuzzer mutates from there into the interesting
// near-valid region. Every input is read as both seed instances.
//
// The zero-copy mapped loader is held to a stronger bar still: on a
// little-endian host with an aligned buffer it must accept exactly the
// byte strings the streaming decoder accepts — covering, among the shared
// validation, the Globals-vs-state-count consistency check — and produce
// bit-equal arrays for them (FuzzMapSpace, FuzzMapSubSpace).

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/scheduler"
)

func fuzzRing(f *testing.F, n int) *tokenring.Algorithm {
	f.Helper()
	a, err := tokenring.New(n)
	if err != nil {
		f.Fatal(err)
	}
	return a
}

// fuzzInstances returns the seed bytes of both serialized kinds and the
// instances a mutated stream is bound to: every fuzz input is read as each
// of them, so a mutation that turns one kind's bytes into a stream for the
// other instance is exercised too.
func fuzzInstances(f *testing.F) (full, frontier []byte, algs []*tokenring.Algorithm) {
	_, fullAlg, full := testSpaceBytes(f)
	_, frontierAlg, frontier := testFrontierBytes(f)
	return full, frontier, []*tokenring.Algorithm{fullAlg, frontierAlg}
}

// checkReadRoundTrip reads data as each instance: ReadSpace must error or
// round-trip bit-identically, never panic.
func checkReadRoundTrip(t *testing.T, data []byte, algs []*tokenring.Algorithm) {
	pol := scheduler.CentralPolicy{}
	for _, a := range algs {
		got, err := ReadSpace(bytes.NewReader(data), a, pol, 1, 0)
		if err != nil {
			continue
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted space failed to re-serialize: %v", err)
		}
		// ReadSpace consumed exactly out.Len() bytes; trailing garbage is
		// legitimately ignored, but the consumed prefix must match — the
		// checksum leaves no room for an accepted-but-different payload.
		if out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted space re-serializes to %d bytes differing from its input", out.Len())
		}
	}
}

// FuzzReadSpace mutates serialized full spaces.
func FuzzReadSpace(f *testing.F) {
	full, _, algs := fuzzInstances(f)
	f.Add(full)
	f.Fuzz(func(t *testing.T, data []byte) { checkReadRoundTrip(t, data, algs) })
}

// FuzzReadSubSpace mutates serialized frontier spaces, with the Globals
// section and its strict-ascent validation in play.
func FuzzReadSubSpace(f *testing.F) {
	_, frontier, algs := fuzzInstances(f)
	f.Add(frontier)
	f.Add(frontier[:40])
	f.Add([]byte("WSSC\x01\x00\x01"))
	f.Fuzz(func(t *testing.T, data []byte) { checkReadRoundTrip(t, data, algs) })
}

// FuzzReadFromSubSpace drives the lower-level ReadFrom seam directly on a
// receiver bound to a mismatched instance, so the dimension validation
// paths get fuzzed too: a stream for one instance must never load into
// another.
func FuzzReadFromSubSpace(f *testing.F) {
	a := fuzzRing(f, 5)
	other := fuzzRing(f, 4)
	pol := scheduler.CentralPolicy{}
	ss, err := BuildFromContext(context.Background(), a, pol, []int64{0, 3}, Options{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ss.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadSpace(bytes.NewReader(data), other, pol, 1, 0)
		if err != nil {
			return
		}
		// tokenring(4) lives in a 3^4 = 81-configuration range, the seeded
		// tokenring(5) stream in a 2^5 = 32 one: any accepted stream must
		// carry the receiver's total (the seed corpus entry itself must be
		// rejected).
		if got.TotalConfigs() != 81 {
			t.Fatalf("space with total %d accepted for an 81-configuration instance", got.TotalConfigs())
		}
	})
}

// checkMapParity cross-checks the zero-copy loader against the streaming
// decoder on data read as each instance: on this host (aligned buffer;
// big-endian hosts skip) the two must agree on acceptance, arrays — the
// Globals section included — and re-serialization. The mapped loader
// ignores trailing garbage exactly like the stream reader, so equality is
// over the consumed prefix.
func checkMapParity(t *testing.T, data []byte, algs []*tokenring.Algorithm) {
	if !hostLittleEndian {
		t.Skip("mapped loads fall back on big-endian hosts")
	}
	pol := scheduler.CentralPolicy{}
	for _, a := range algs {
		mapped, mapErr := MapSpace(copyAt(data, 0), a, pol, 1, 0, nil)
		decoded, decErr := ReadSpace(bytes.NewReader(data), a, pol, 1, 0)
		if errors.Is(mapErr, ErrNotMappable) {
			t.Fatalf("aligned little-endian buffer reported ErrNotMappable")
		}
		if (mapErr == nil) != (decErr == nil) {
			t.Fatalf("paths disagree on acceptance: map=%v decode=%v", mapErr, decErr)
		}
		if mapErr != nil {
			continue
		}
		mo, ms, mp := mapped.CSR()
		do, ds, dp := decoded.CSR()
		if mapped.States != decoded.States || !reflect.DeepEqual(mapped.Legit, decoded.Legit) ||
			!reflect.DeepEqual(mo, do) || !reflect.DeepEqual(ms, ds) || !reflect.DeepEqual(mp, dp) ||
			!reflect.DeepEqual(mapped.Globals(), decoded.Globals()) {
			t.Fatalf("mapped and decoded spaces differ for the same accepted bytes")
		}
		var out bytes.Buffer
		if _, err := mapped.WriteTo(&out); err != nil {
			t.Fatalf("accepted mapped space failed to re-serialize: %v", err)
		}
		if out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted mapped space re-serializes to %d bytes differing from its input", out.Len())
		}
	}
}

// FuzzMapSpace runs the mapped-vs-decoded cross-check on mutated full
// spaces.
func FuzzMapSpace(f *testing.F) {
	full, _, algs := fuzzInstances(f)
	f.Add(full)
	f.Fuzz(func(t *testing.T, data []byte) { checkMapParity(t, data, algs) })
}

// FuzzMapSubSpace runs it on mutated frontier spaces, with the Globals
// section — its state-count consistency and strict-ascent validation — in
// play on the mapped path.
func FuzzMapSubSpace(f *testing.F) {
	_, frontier, algs := fuzzInstances(f)
	f.Add(frontier)
	f.Add(frontier[:40])
	f.Fuzz(func(t *testing.T, data []byte) { checkMapParity(t, data, algs) })
}
