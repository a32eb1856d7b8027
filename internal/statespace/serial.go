// On-disk serialization of explored transition systems. A Space is, at
// rest, four flat arrays (the CSR triple off/succ/prob plus the legitimacy
// vector) — and, for a frontier space, the Globals() vector that ties local
// ids back to the mixed-radix index range. WriteTo streams them as a
// versioned little-endian binary: a fixed header (magic, format version,
// kind, dimensions), length-prefixed sections in a fixed order, and a
// trailing checksum of everything before it. The kind byte says whether a
// Globals section follows: kind 0 is a full space (no table, states equal
// the index range), kind 1 a frontier space. ReadFrom is the exact inverse
// and rejects anything it cannot trust: wrong magic, version or kind,
// dimension or section-length inconsistencies, truncation, and checksum
// failures.
//
// Format v2 lays every section payload out on an 8-byte boundary (the
// header, counts and int64/float64 payloads are naturally 8-wide; the succ
// and legit payloads are zero-padded up to it) so that the zero-copy
// mapped loader (mapped.go) can alias the int64/float64/int32 sections of
// a page-aligned mmap directly via unsafe.Slice. Readers reject nonzero
// padding and spare legitimacy bits, keeping the byte stream a *bijection*
// of the explored arrays: an accepted stream re-serializes bit-identically.
// The checksum is CRC-32C (Castagnoli), hardware-accelerated on the hosts
// that matter — an order of magnitude faster than the CRC-64 of format v1,
// which would otherwise dominate the mapped warm-load path — stored as the
// low 32 bits of the 8-byte little-endian trailer.
//
// The format stores only what exploration computed — never the algorithm
// or policy, which are pure code. A reader therefore binds the arrays to
// (algorithm, policy) objects supplied by the caller and validates the
// dimensions against the algorithm's own encoder, so a loaded system is
// indistinguishable from a freshly built one (bit-equal arrays, identical
// analyses). Cache keying — deciding *which* file belongs to which
// (algorithm, instance, policy, seed set) — lives one layer up, in
// internal/spacecache.
package statespace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// SerialVersion is the on-disk format version written by WriteTo and
// required by ReadFrom. Bump it on any incompatible layout change; stale
// cache files then fail the version gate and are rebuilt. Version 2
// introduced 8-byte section alignment and the CRC-32C trailer.
const SerialVersion = 2

// serialMagic opens every serialized system ("WSSC": weakstab space cache).
var serialMagic = [4]byte{'W', 'S', 'S', 'C'}

// Kind discriminates the two layouts in the header.
const (
	kindFull     = 0 // full index range: States == Enc.Total(), no table
	kindFrontier = 1 // frontier space: + Globals section
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// serialChunk is the element count encoded per buffered write/read. 8 KiB
// buffers keep the loops in cache while amortizing Write/Read calls.
const serialChunk = 1 << 10

// crcWriter counts and checksums everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crcTable, p[:n])
	cw.n += int64(n)
	return n, err
}

// crcReader counts and checksums everything read through it.
type crcReader struct {
	r   io.Reader
	crc uint32
	n   int64
}

func (cr *crcReader) full(p []byte) error {
	n, err := io.ReadFull(cr.r, p)
	cr.crc = crc32.Update(cr.crc, crcTable, p[:n])
	cr.n += int64(n)
	return err
}

// WriteTo implements io.WriterTo: it streams the space in the versioned
// binary cache format, as kind 0 for a full space and as kind 1, with the
// Globals section, for a frontier space. The byte stream is a pure
// function of the explored arrays (worker counts, cached reverse views and
// the algorithm/policy objects are not part of it).
func (sp *Space) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &crcWriter{w: bw}

	var hdr [32]byte
	copy(hdr[0:4], serialMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], SerialVersion)
	hdr[6] = kindFull
	if sp.table != nil {
		hdr[6] = kindFrontier
	}
	hdr[7] = 0 // reserved
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(sp.States))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(sp.succ)))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(sp.Enc.Total()))
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}

	if err := writeI64s(cw, sp.off); err != nil {
		return cw.n, err
	}
	if err := writeI32s(cw, sp.succ); err != nil {
		return cw.n, err
	}
	if err := writeF64s(cw, sp.prob); err != nil {
		return cw.n, err
	}
	if err := writeBools(cw, sp.Legit); err != nil {
		return cw.n, err
	}
	if sp.table != nil {
		if err := writeI64s(cw, sp.Globals()); err != nil {
			return cw.n, err
		}
	}

	// Trailer: CRC-32C of everything above in the low 32 bits of an 8-byte
	// word (so the total file length stays 8-aligned), written outside the
	// checksum.
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], uint64(cw.crc))
	if _, err := bw.Write(sum[:]); err != nil {
		return cw.n, err
	}
	return cw.n + 8, bw.Flush()
}

func writeCount(cw *crcWriter, n int) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	_, err := cw.Write(b[:])
	return err
}

// pad8 returns the number of zero bytes that pad a payload of the given
// size to the next 8-byte boundary.
func pad8(size int64) int64 { return -size & 7 }

// writePad zero-pads a section payload of size bytes to the next 8-byte
// boundary, keeping the following section — and with it every int64 and
// float64 payload of the stream — 8-aligned for the zero-copy mapped
// loader.
func writePad(cw *crcWriter, size int64) error {
	pad := pad8(size)
	if pad == 0 {
		return nil
	}
	var zeros [7]byte
	_, err := cw.Write(zeros[:pad])
	return err
}

func writeI64s(cw *crcWriter, v []int64) error {
	if err := writeCount(cw, len(v)); err != nil {
		return err
	}
	var buf [serialChunk * 8]byte
	for len(v) > 0 {
		c := min(len(v), serialChunk)
		for i, x := range v[:c] {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(x))
		}
		if _, err := cw.Write(buf[:c*8]); err != nil {
			return err
		}
		v = v[c:]
	}
	return nil
}

func writeI32s(cw *crcWriter, v []int32) error {
	if err := writeCount(cw, len(v)); err != nil {
		return err
	}
	var buf [serialChunk * 4]byte
	n := len(v)
	for len(v) > 0 {
		c := min(len(v), serialChunk)
		for i, x := range v[:c] {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(x))
		}
		if _, err := cw.Write(buf[:c*4]); err != nil {
			return err
		}
		v = v[c:]
	}
	return writePad(cw, int64(n)*4)
}

func writeF64s(cw *crcWriter, v []float64) error {
	if err := writeCount(cw, len(v)); err != nil {
		return err
	}
	var buf [serialChunk * 8]byte
	for len(v) > 0 {
		c := min(len(v), serialChunk)
		for i, x := range v[:c] {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
		}
		if _, err := cw.Write(buf[:c*8]); err != nil {
			return err
		}
		v = v[c:]
	}
	return nil
}

// writeBools bit-packs the legitimacy vector, eight states per byte, LSB
// first, spare bits of the final byte zero.
func writeBools(cw *crcWriter, v []bool) error {
	if err := writeCount(cw, len(v)); err != nil {
		return err
	}
	var buf [serialChunk]byte
	n := len(v)
	for len(v) > 0 {
		c := min(len(v), serialChunk*8)
		packed := buf[:(c+7)/8]
		clear(packed)
		for i, b := range v[:c] {
			if b {
				packed[i/8] |= 1 << (i % 8)
			}
		}
		if _, err := cw.Write(packed); err != nil {
			return err
		}
		v = v[c:]
	}
	return writePad(cw, (int64(n)+7)/8)
}

// serialHeader is the decoded fixed header of a serialized system.
type serialHeader struct {
	kind   byte
	states int64
	edges  int64
	total  int64
}

// parseHeader decodes and validates the fixed 32-byte header — the shared
// front door of the streaming (ReadFrom) and mapped (mapped.go) readers.
func parseHeader(hdr [32]byte) (serialHeader, error) {
	if [4]byte(hdr[0:4]) != serialMagic {
		return serialHeader{}, fmt.Errorf("statespace: bad magic %q (not a serialized space)", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != SerialVersion {
		return serialHeader{}, fmt.Errorf("statespace: format version %d, want %d", v, SerialVersion)
	}
	h := serialHeader{
		kind:   hdr[6],
		states: int64(binary.LittleEndian.Uint64(hdr[8:16])),
		edges:  int64(binary.LittleEndian.Uint64(hdr[16:24])),
		total:  int64(binary.LittleEndian.Uint64(hdr[24:32])),
	}
	if h.kind != kindFull && h.kind != kindFrontier {
		return serialHeader{}, fmt.Errorf("statespace: unknown serialized kind %d", h.kind)
	}
	// Plausibility bounds: states fit the int32 id range, and a merged CSR
	// can never hold more than states² distinct transitions (the section
	// readers additionally grow their arrays incrementally, so even a
	// header that lies within these bounds cannot force an allocation
	// larger than the bytes actually present in the stream).
	if h.states < 0 || h.states > math.MaxInt32 || h.edges < 0 || h.edges > h.states*h.states || h.total < h.states {
		return serialHeader{}, fmt.Errorf("statespace: implausible dimensions (states=%d edges=%d total=%d)", h.states, h.edges, h.total)
	}
	return h, nil
}

// bindHeader checks a parsed header against the instance the stream is
// being bound to and the caller's state cap — before any section is
// decoded, so an oversized or foreign entry costs a 32-byte read. A full
// space must span exactly the instance's index range; a frontier space
// must live inside it.
func bindHeader(h serialHeader, a protocol.Algorithm, enc *protocol.Encoder, maxStates int64) error {
	if h.states > maxStates {
		return fmt.Errorf("statespace: serialized space has %d states, beyond the %d-state cap", h.states, maxStates)
	}
	if h.total != enc.Total() || (h.kind == kindFull && h.states != h.total) {
		return fmt.Errorf("statespace: serialized space has %d of %d configurations (kind %d), want the %d-configuration range of %s",
			h.states, h.total, h.kind, enc.Total(), a.Name())
	}
	return nil
}

func readCount(cr *crcReader, want int64, section string) error {
	var b [8]byte
	if err := cr.full(b[:]); err != nil {
		return fmt.Errorf("statespace: reading %s length: %w", section, err)
	}
	if got := int64(binary.LittleEndian.Uint64(b[:])); got != want {
		return fmt.Errorf("statespace: %s section has %d entries, want %d", section, got, want)
	}
	return nil
}

// readPad consumes the zero padding behind a section payload of size
// bytes, rejecting nonzero bytes — padding carries no information, so an
// accepted stream must re-serialize bit-identically.
func readPad(cr *crcReader, size int64, section string) error {
	pad := pad8(size)
	if pad == 0 {
		return nil
	}
	var b [7]byte
	if err := cr.full(b[:pad]); err != nil {
		return fmt.Errorf("statespace: reading %s padding: %w", section, err)
	}
	for _, x := range b[:pad] {
		if x != 0 {
			return fmt.Errorf("statespace: nonzero %s section padding", section)
		}
	}
	return nil
}

// serialPrealloc caps the element count a section reader allocates before
// any payload byte has been read. Sections at most this long (the common
// case by orders of magnitude) get one exact allocation; longer ones grow
// by append as bytes actually arrive — so a corrupt or hostile header
// claiming a gigantic section cannot force more than ~64 MB of allocation
// before the stream runs dry and the read fails.
const serialPrealloc = 1 << 23

func readI64s(cr *crcReader, n int64, section string) ([]int64, error) {
	if err := readCount(cr, n, section); err != nil {
		return nil, err
	}
	out := make([]int64, 0, min(n, serialPrealloc))
	var buf [serialChunk * 8]byte
	for int64(len(out)) < n {
		c := min(n-int64(len(out)), serialChunk)
		if err := cr.full(buf[:c*8]); err != nil {
			return nil, fmt.Errorf("statespace: reading %s: %w", section, err)
		}
		for i := int64(0); i < c; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	return out, nil
}

func readI32s(cr *crcReader, n int64, section string) ([]int32, error) {
	if err := readCount(cr, n, section); err != nil {
		return nil, err
	}
	out := make([]int32, 0, min(n, serialPrealloc*2))
	var buf [serialChunk * 4]byte
	for int64(len(out)) < n {
		c := min(n-int64(len(out)), serialChunk)
		if err := cr.full(buf[:c*4]); err != nil {
			return nil, fmt.Errorf("statespace: reading %s: %w", section, err)
		}
		for i := int64(0); i < c; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[i*4:])))
		}
	}
	if err := readPad(cr, n*4, section); err != nil {
		return nil, err
	}
	return out, nil
}

func readF64s(cr *crcReader, n int64, section string) ([]float64, error) {
	if err := readCount(cr, n, section); err != nil {
		return nil, err
	}
	out := make([]float64, 0, min(n, serialPrealloc))
	var buf [serialChunk * 8]byte
	for int64(len(out)) < n {
		c := min(n-int64(len(out)), serialChunk)
		if err := cr.full(buf[:c*8]); err != nil {
			return nil, fmt.Errorf("statespace: reading %s: %w", section, err)
		}
		for i := int64(0); i < c; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	return out, nil
}

func readBools(cr *crcReader, n int64, section string) ([]bool, error) {
	if err := readCount(cr, n, section); err != nil {
		return nil, err
	}
	out := make([]bool, 0, min(n, serialPrealloc*8))
	var buf [serialChunk]byte
	for int64(len(out)) < n {
		c := min(n-int64(len(out)), serialChunk*8)
		nb := (c + 7) / 8
		if err := cr.full(buf[:nb]); err != nil {
			return nil, fmt.Errorf("statespace: reading %s: %w", section, err)
		}
		for i := int64(0); i < c; i++ {
			out = append(out, buf[i/8]&(1<<(i%8)) != 0)
		}
		// Spare bits beyond the final element carry no information; reject
		// nonzero ones so accepted streams stay bijective with the arrays.
		if c%8 != 0 && buf[nb-1]>>(c%8) != 0 {
			return nil, fmt.Errorf("statespace: nonzero spare bits in %s section", section)
		}
	}
	if err := readPad(cr, (n+7)/8, section); err != nil {
		return nil, err
	}
	return out, nil
}

// unpackBools decodes a bit-packed section payload (LSB first) into a
// fresh bool slice of n elements, rejecting nonzero spare bits in the
// final byte — the mapped loader's equivalent of readBools' decode step.
func unpackBools(packed []byte, n int64) ([]bool, error) {
	out := make([]bool, n)
	// Whole bytes expand through a precomputed 8-bool pattern per byte
	// value — one table copy instead of eight shift-and-test iterations.
	for i := int64(0); i+1 <= n/8; i++ {
		copy(out[i*8:i*8+8], boolPatterns[packed[i]][:])
	}
	for i := n - n%8; i < n; i++ {
		out[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	if n%8 != 0 && packed[(n-1)/8]>>(n%8) != 0 {
		return nil, fmt.Errorf("statespace: nonzero spare bits in legit section")
	}
	return out, nil
}

// boolPatterns[b] is the 8 bools packed into byte value b, LSB first.
var boolPatterns = func() (t [256][8]bool) {
	for b := range t {
		for i := 0; i < 8; i++ {
			t[b][i] = b&(1<<i) != 0
		}
	}
	return
}()

// validateOffsets checks the CSR row-offset invariants shared by the
// streaming and mapped readers: exactly states+1 entries spanning
// [0, edges] monotonically.
func validateOffsets(states, edges int64, off []int64) error {
	if int64(len(off)) != states+1 {
		return fmt.Errorf("statespace: off section has %d entries for %d states", len(off), states)
	}
	if off[0] != 0 || off[states] != edges {
		return fmt.Errorf("statespace: CSR offsets span [%d,%d], want [0,%d]", off[0], off[states], edges)
	}
	for s := int64(0); s < states; s++ {
		if off[s] > off[s+1] {
			return fmt.Errorf("statespace: CSR offsets not monotone at state %d", s)
		}
	}
	return nil
}

// validateSucc checks that every successor index lies in [0, states).
func validateSucc(states int64, succ []int32) error {
	if len(succ) == 0 {
		return nil
	}
	// Hot on every load of either path: reduce to the maximum successor as
	// an unsigned value (a negative one wraps huge; states is capped at
	// MaxInt32 by the header check, so one unsigned bound covers both
	// violations), in parallel chunks on large arrays, and rescan for the
	// exact culprit only on failure.
	const grain = 1 << 19
	var m uint32
	if len(succ) >= 2*grain {
		numChunks := (len(succ) + grain - 1) / grain
		maxes := make([]uint32, numChunks)
		ForRanges(len(succ), 0, grain, func(lo, hi int) bool {
			maxes[lo/grain] = maxSucc(succ[lo:hi])
			return true
		})
		for _, x := range maxes {
			m = max(m, x)
		}
	} else {
		m = maxSucc(succ)
	}
	if int64(m) < states {
		return nil
	}
	for _, t := range succ {
		if int64(t) < 0 || int64(t) >= states {
			return fmt.Errorf("statespace: successor %d outside [0,%d)", t, states)
		}
	}
	return fmt.Errorf("statespace: successor outside [0,%d)", states)
}

// maxSucc returns the maximum of succ reinterpreted as uint32s, with four
// independent accumulators for instruction-level parallelism.
func maxSucc(succ []int32) uint32 {
	var m0, m1, m2, m3 uint32
	i := 0
	for ; i+4 <= len(succ); i += 4 {
		m0 = max(m0, uint32(succ[i]))
		m1 = max(m1, uint32(succ[i+1]))
		m2 = max(m2, uint32(succ[i+2]))
		m3 = max(m3, uint32(succ[i+3]))
	}
	for ; i < len(succ); i++ {
		m0 = max(m0, uint32(succ[i]))
	}
	return max(m0, m1, m2, m3)
}

// validateGlobals checks a frontier space's Globals section against the header
// it arrived with: exactly one global per state — an explicit
// length-vs-state-count consistency check the section's own length prefix
// cannot vouch for on the mapped path — strictly ascending within the
// instance's [0, total) index range.
func validateGlobals(states, total int64, globals []int64) error {
	if int64(len(globals)) != states {
		return fmt.Errorf("statespace: globals section has %d entries for %d states", len(globals), states)
	}
	prev := int64(-1)
	for _, g := range globals {
		if g <= prev || g >= total {
			return fmt.Errorf("statespace: globals not strictly ascending within [0,%d)", total)
		}
		prev = g
	}
	return nil
}

// readBody reads and validates sections and trailer after the header. The
// returned arrays satisfy the CSR invariants (off monotone from 0 to edges,
// succ within [0, states)).
func readBody(cr *crcReader, br io.Reader, h serialHeader) (off []int64, succ []int32, prob []float64, legit []bool, globals []int64, err error) {
	if off, err = readI64s(cr, h.states+1, "off"); err != nil {
		return
	}
	if succ, err = readI32s(cr, h.edges, "succ"); err != nil {
		return
	}
	if prob, err = readF64s(cr, h.edges, "prob"); err != nil {
		return
	}
	if legit, err = readBools(cr, h.states, "legit"); err != nil {
		return
	}
	if h.kind == kindFrontier {
		if globals, err = readI64s(cr, h.states, "globals"); err != nil {
			return
		}
	}

	// Trailer: the stored CRC (not itself checksummed) must match the
	// running one. Checked before the structural validation below so a
	// corrupted file reports corruption, not a confusing shape error.
	want := cr.crc
	var sum [8]byte
	if _, err = io.ReadFull(br, sum[:]); err != nil {
		err = fmt.Errorf("statespace: reading checksum: %w", err)
		return
	}
	if got := binary.LittleEndian.Uint64(sum[:]); got != uint64(want) {
		err = fmt.Errorf("statespace: checksum mismatch (file %#x, computed %#x): corrupted cache file", got, want)
		return
	}

	if err = validateOffsets(h.states, h.edges, off); err != nil {
		return
	}
	if err = validateSucc(h.states, succ); err != nil {
		return
	}
	if h.kind == kindFrontier {
		err = validateGlobals(h.states, h.total, globals)
	}
	return
}

// ReadFrom implements io.ReaderFrom: it replaces sp's explored arrays with
// a stream written by WriteTo, of either kind. The receiver must already
// be bound to its algorithm, policy and encoder (Alg, Pol, Enc non-nil —
// see ReadSpace for the usual entry point); the stream's dimensions are
// validated against the encoder, so a file from a different instance is
// rejected even before cache-key hygiene.
func (sp *Space) ReadFrom(r io.Reader) (int64, error) { return sp.readFrom(r, IndexLimit) }

// readFrom is ReadFrom with a state cap checked right after the header,
// before any section is materialized.
func (sp *Space) readFrom(r io.Reader, maxStates int64) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	cr := &crcReader{r: br}
	var hdr [32]byte
	if err := cr.full(hdr[:]); err != nil {
		return cr.n, fmt.Errorf("statespace: reading header: %w", err)
	}
	h, err := parseHeader(hdr)
	if err == nil {
		err = bindHeader(h, sp.Alg, sp.Enc, maxStates)
	}
	if err != nil {
		return cr.n, err
	}
	off, succ, prob, legit, globals, err := readBody(cr, br, h)
	if err != nil {
		return cr.n + 8, err
	}
	// The replaced arrays may have aliased a mapping; the receiver now owns
	// fresh decoded arrays, so drop (and close) it.
	sp.detachMapping()
	sp.States = int(h.states)
	sp.Legit = legit
	sp.off, sp.succ, sp.prob = off, succ, prob
	sp.table = nil
	if h.kind == kindFrontier {
		// The Globals section was validated strictly ascending, and a
		// loaded space never grows: the sealed binary-search table avoids
		// both the dense O(range) array and the per-entry hash insertion of
		// a growable dedup (a Builder re-adopting this space builds its
		// own).
		sp.table = NewSortedDedup(globals)
	}
	// The forward CSR changed, so any reverse view cached on this receiver
	// is stale: reset it so the next Reverse() rebuilds from the loaded
	// arrays. (ReadFrom must not run concurrently with any use of sp.)
	sp.revOnce = sync.Once{}
	sp.rev = Reverse{}
	return cr.n + 8, nil
}

// ReadSpace reads a space serialized by WriteTo, of either kind, and binds
// it to the given algorithm and policy (which the format deliberately does
// not store — they are code, not data). workers sizes the analysis pools
// of the loaded space (0 = NumCPU) and maxStates caps its state count
// exactly as Options.MaxStates caps a fresh build (0 = DefaultMaxStates),
// rejected at the header before the arrays are decoded.
func ReadSpace(r io.Reader, a protocol.Algorithm, pol scheduler.Policy, workers int, maxStates int64) (*Space, error) {
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		return nil, fmt.Errorf("statespace: %w", err)
	}
	sp := &Space{Alg: a, Pol: pol, Enc: enc}
	if _, err := sp.readFrom(r, StateCap(maxStates)); err != nil {
		return nil, err
	}
	sp.Workers = sp.poolSize(workers)
	return sp, nil
}

// poolSize resolves a loaded space's worker option the way the matching
// build resolves it: a full build never runs more workers than states.
func (sp *Space) poolSize(workers int) int {
	if sp.table == nil {
		return resolveWorkers(workers, sp.States)
	}
	return resolveWorkers(workers, math.MaxInt)
}
