// Zero-copy loading of serialized transition systems. The streaming
// readers in serial.go decode every section into fresh heap arrays — an
// O(bytes) copy on every warm load. The mapped loader takes the opposite
// deal: given the file's bytes as one contiguous buffer (in practice a
// read-only mmap established by internal/spacecache), it validates the
// header, section counts, padding and CRC-32C once, then aliases the
// int64/int32/float64 section payloads in place via unsafe.Slice — format
// v2 guarantees every payload sits on an 8-byte boundary relative to the
// (page-aligned) buffer start, so the aliased slices are well-aligned by
// construction, and the loader verifies it anyway. Only the bit-packed
// legitimacy vector is decoded (it cannot alias []bool; at one bit per
// state it is the cheapest section by far). The result is a Space — full
// or frontier, whichever kind the bytes hold — whose CSR (and Globals)
// arrays are backed by the page cache: an analysis touches only the pages
// it actually reads.
//
// The byte order of the format is little-endian; on a big-endian host, or
// when the buffer is not 8-byte aligned, MapSpace fails with
// ErrNotMappable and the caller falls back to the streaming decode path —
// which produces bit-equal arrays, so the two paths are interchangeable
// everywhere downstream.
//
// Ownership: a mapped space holds a reference-counted mapping. Analyses
// that must not race an unmap pin it with Acquire/Release; Close is
// idempotent and defers the actual unmap until the last reference drops.
// Materialize promotes a mapped space to ordinary heap arrays for callers
// that outlive the mapping or mutate the arrays (copy-on-write, one copy).
// All four are no-ops on a space that maps nothing, including a nil one,
// so callers invoke them unconditionally.
package statespace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// ErrNotMappable reports a buffer that cannot be zero-copy aliased on this
// host — a big-endian machine, or a buffer whose base address is not
// 8-byte aligned (mmap always is; ad-hoc sub-slices may not be). It marks
// structural unfitness, not corruption: the same bytes remain loadable
// through the streaming decode path.
var ErrNotMappable = errors.New("statespace: buffer not zero-copy mappable on this host")

// hostLittleEndian reports whether the running host stores integers in the
// format's byte order, decided once at startup.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mapping tracks the lifetime of the externally owned buffer a mapped
// system aliases. Acquire pins the buffer for the duration of an analysis;
// Close marks the mapping dead and unmaps as soon as the last pin drops
// (immediately, when none is held). All methods are safe for concurrent
// use.
type mapping struct {
	mu     sync.Mutex
	refs   int
	closed bool
	unmap  func() error
}

func (m *mapping) acquire() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("statespace: Acquire on a closed mapped system")
	}
	m.refs++
	return nil
}

func (m *mapping) release() error {
	m.mu.Lock()
	if m.refs <= 0 {
		m.mu.Unlock()
		panic("statespace: Release without matching Acquire")
	}
	m.refs--
	var unmap func() error
	if m.closed && m.refs == 0 {
		unmap, m.unmap = m.unmap, nil
	}
	m.mu.Unlock()
	if unmap != nil {
		return unmap()
	}
	return nil
}

func (m *mapping) close() error {
	m.mu.Lock()
	m.closed = true
	var unmap func() error
	if m.refs == 0 {
		unmap, m.unmap = m.unmap, nil
	}
	m.mu.Unlock()
	if unmap != nil {
		return unmap()
	}
	return nil
}

// Mapped reports whether the space's CSR arrays alias an external mapped
// buffer (loaded by MapSpace) rather than ordinary heap memory.
func (sp *Space) Mapped() bool { return sp != nil && sp.mapped != nil }

// Acquire pins the mapped buffer backing the space so a concurrent Close
// cannot unmap it mid-analysis; every Acquire must be paired with a
// Release. It fails once the space has been closed.
func (sp *Space) Acquire() error {
	if !sp.Mapped() {
		return nil
	}
	return sp.mapped.acquire()
}

// Release undoes one Acquire. The last Release after a Close performs the
// deferred unmap (and returns its error).
func (sp *Space) Release() error {
	if !sp.Mapped() {
		return nil
	}
	return sp.mapped.release()
}

// Close releases the mapped buffer backing the space. It is idempotent and
// safe concurrently with pinned analyses: the unmap is deferred until the
// last Acquire is released. After Close the space's CSR accessors must not
// be used (unpinned) — callers needing the data past Close use Materialize
// first.
func (sp *Space) Close() error {
	if !sp.Mapped() {
		return nil
	}
	return sp.mapped.close()
}

// Materialize promotes a mapped space to ordinary heap arrays (one copy of
// the CSR and, for a frontier space, the Globals) and closes the mapping,
// so the space outlives the buffer and its arrays become safely mutable by
// owners that need that. It must not run concurrently with other users of
// the space.
func (sp *Space) Materialize() error {
	if !sp.Mapped() {
		return nil
	}
	sp.off = slices.Clone(sp.off)
	sp.succ = slices.Clone(sp.succ)
	sp.prob = slices.Clone(sp.prob)
	if sp.table != nil {
		sp.table = NewSortedDedup(slices.Clone(sp.Globals()))
	}
	return sp.detachMapping()
}

// detachMapping drops and closes the mapping once the receiver no longer
// aliases it.
func (sp *Space) detachMapping() error {
	if !sp.Mapped() {
		return nil
	}
	m := sp.mapped
	sp.mapped = nil
	runtime.SetFinalizer(sp, nil)
	return m.close()
}

// mappedArrays is the outcome of mapSystem: section payloads aliasing the
// buffer (nil when empty) plus the decoded legitimacy vector.
type mappedArrays struct {
	off     []int64
	succ    []int32
	prob    []float64
	legit   []bool
	globals []int64
}

// mapCount verifies the 8-byte length prefix at data[at:] carries the
// header-implied element count — the mapped twin of readCount.
func mapCount(data []byte, at, want int64, section string) error {
	if got := int64(binary.LittleEndian.Uint64(data[at:])); got != want {
		return fmt.Errorf("statespace: %s section has %d entries, want %d", section, got, want)
	}
	return nil
}

// mapPad verifies the zero padding behind a section payload ending at
// data[at:] — the mapped twin of readPad.
func mapPad(data []byte, at, size int64, section string) error {
	for _, x := range data[at : at+pad8(size)] {
		if x != 0 {
			return fmt.Errorf("statespace: nonzero %s section padding", section)
		}
	}
	return nil
}

// aliasI64s returns data[at:] reinterpreted as n int64s without copying.
func aliasI64s(data []byte, at, n int64) ([]int64, error) {
	if n == 0 {
		return nil, nil
	}
	p := unsafe.Pointer(&data[at])
	if uintptr(p)%8 != 0 {
		return nil, ErrNotMappable
	}
	return unsafe.Slice((*int64)(p), n), nil
}

// aliasI32s returns data[at:] reinterpreted as n int32s without copying.
func aliasI32s(data []byte, at, n int64) ([]int32, error) {
	if n == 0 {
		return nil, nil
	}
	p := unsafe.Pointer(&data[at])
	if uintptr(p)%4 != 0 {
		return nil, ErrNotMappable
	}
	return unsafe.Slice((*int32)(p), n), nil
}

// aliasF64s returns data[at:] reinterpreted as n float64s without copying.
func aliasF64s(data []byte, at, n int64) ([]float64, error) {
	if n == 0 {
		return nil, nil
	}
	p := unsafe.Pointer(&data[at])
	if uintptr(p)%8 != 0 {
		return nil, ErrNotMappable
	}
	return unsafe.Slice((*float64)(p), n), nil
}

// mapSystem validates a format-v2 buffer end to end — header fields and
// their binding to the instance (bindHeader, before any section is
// touched), section counts, padding, CRC-32C, CSR structure — and returns
// arrays aliasing its sections. It performs every check the streaming reader
// performs (the two paths accept exactly the same byte strings, modulo
// ErrNotMappable), but touches the bytes only twice: once for the
// hardware-assisted checksum, once for validation scans.
//
// With trusted set, the O(bytes) passes — checksum and the array content
// validators — are skipped: the caller vouches that these exact bytes
// already passed a full validation (the spacecache keys that promise on
// the file's inode identity). Layout, counts and alignment are still
// checked, so a trusted load of the wrong-shaped buffer fails cleanly.
func mapSystem(data []byte, a protocol.Algorithm, enc *protocol.Encoder, maxStates int64, trusted bool) (serialHeader, mappedArrays, error) {
	var arr mappedArrays
	if !hostLittleEndian {
		return serialHeader{}, arr, ErrNotMappable
	}
	if int64(len(data)) < 32 {
		return serialHeader{}, arr, fmt.Errorf("statespace: buffer of %d bytes too short for a serialized space", len(data))
	}
	h, err := parseHeader([32]byte(data[0:32]))
	if err == nil {
		err = bindHeader(h, a, enc, maxStates)
	}
	if err != nil {
		return serialHeader{}, arr, err
	}
	// Cheap truncation gate before any layout arithmetic: it also bounds
	// states and edges by the buffer length, so the offset sums below
	// cannot overflow (every term is < 8·len(data)).
	if h.states > int64(len(data))/8 || h.edges > int64(len(data))/4 {
		return serialHeader{}, arr, fmt.Errorf("statespace: buffer of %d bytes truncated for %d states, %d edges", len(data), h.states, h.edges)
	}

	// Section layout. Format v2 makes it a pure function of the header:
	// every count is 8 bytes, every payload zero-padded to an 8-byte
	// boundary.
	offAt := int64(32 + 8)
	offBytes := (h.states + 1) * 8
	succAt := offAt + offBytes + 8
	succBytes := h.edges * 4
	probAt := succAt + succBytes + pad8(succBytes) + 8
	probBytes := h.edges * 8
	legitAt := probAt + probBytes + 8
	legitBytes := (h.states + 7) / 8
	end := legitAt + legitBytes + pad8(legitBytes)
	globAt, globBytes := int64(0), int64(0)
	if h.kind == kindFrontier {
		globAt = end + 8
		globBytes = h.states * 8
		end = globAt + globBytes
	}
	need := end + 8 // CRC trailer
	if int64(len(data)) < need {
		return serialHeader{}, arr, fmt.Errorf("statespace: buffer of %d bytes truncated for a %d-byte serialized system", len(data), need)
	}

	if err := mapCount(data, offAt-8, h.states+1, "off"); err != nil {
		return serialHeader{}, arr, err
	}
	if err := mapCount(data, succAt-8, h.edges, "succ"); err != nil {
		return serialHeader{}, arr, err
	}
	if err := mapCount(data, probAt-8, h.edges, "prob"); err != nil {
		return serialHeader{}, arr, err
	}
	if err := mapCount(data, legitAt-8, h.states, "legit"); err != nil {
		return serialHeader{}, arr, err
	}
	if h.kind == kindFrontier {
		if err := mapCount(data, globAt-8, h.states, "globals"); err != nil {
			return serialHeader{}, arr, err
		}
	}

	if !trusted {
		// Integrity before structure, exactly like the streaming reader: a
		// corrupted file reports corruption, not a confusing shape error.
		want := checksumParallel(data[:end])
		if got := binary.LittleEndian.Uint64(data[end:]); got != uint64(want) {
			return serialHeader{}, arr, fmt.Errorf("statespace: checksum mismatch (file %#x, computed %#x): corrupted cache file", got, want)
		}
		if err := mapPad(data, succAt+succBytes, succBytes, "succ"); err != nil {
			return serialHeader{}, arr, err
		}
		if err := mapPad(data, legitAt+legitBytes, legitBytes, "legit"); err != nil {
			return serialHeader{}, arr, err
		}
	}

	if arr.off, err = aliasI64s(data, offAt, h.states+1); err != nil {
		return serialHeader{}, arr, err
	}
	if arr.succ, err = aliasI32s(data, succAt, h.edges); err != nil {
		return serialHeader{}, arr, err
	}
	if arr.prob, err = aliasF64s(data, probAt, h.edges); err != nil {
		return serialHeader{}, arr, err
	}
	if arr.legit, err = unpackBools(data[legitAt:legitAt+legitBytes], h.states); err != nil {
		return serialHeader{}, arr, err
	}
	if h.kind == kindFrontier {
		if arr.globals, err = aliasI64s(data, globAt, h.states); err != nil {
			return serialHeader{}, arr, err
		}
	}

	if !trusted {
		if err := validateOffsets(h.states, h.edges, arr.off); err != nil {
			return serialHeader{}, arr, err
		}
		if err := validateSucc(h.states, arr.succ); err != nil {
			return serialHeader{}, arr, err
		}
		if h.kind == kindFrontier {
			if err := validateGlobals(h.states, h.total, arr.globals); err != nil {
				return serialHeader{}, arr, err
			}
		}
	}
	return h, arr, nil
}

// MapSpace interprets data — the complete bytes of a space serialized by
// WriteTo, of either kind, typically a read-only mmap of a cache file — as
// a transition system whose CSR (and Globals) arrays alias data in place
// (zero-copy; only the bit-packed legitimacy vector is decoded; a frontier
// space's table is the sealed binary-search view over the aliased
// Globals). Validation is equivalent to ReadSpace's: the two paths accept
// the same bytes and produce bit-equal arrays. ErrNotMappable (big-endian
// host, misaligned buffer) means the caller should fall back to ReadSpace;
// any other error means the bytes themselves are unusable.
//
// unmap, when non-nil, is invoked exactly once — by Close, the final
// Release after a Close, Materialize, or a GC finalizer safety net — when
// the returned space is done with the buffer. On error, ownership of the
// buffer stays with the caller and unmap is not invoked.
func MapSpace(data []byte, a protocol.Algorithm, pol scheduler.Policy, workers int, maxStates int64, unmap func() error) (*Space, error) {
	return mapSpace(data, a, pol, workers, maxStates, unmap, false)
}

// MapSpaceTrusted is MapSpace minus the O(bytes) integrity passes
// (checksum, padding scans, CSR content validators). The caller asserts
// that these exact bytes already passed a full MapSpace or ReadSpace
// validation and have not changed since — the spacecache keys that
// promise on the backing file's (device, inode, size, mtime) identity,
// which every rewrite path invalidates via rename. Layout, counts and
// alignment are still checked.
func MapSpaceTrusted(data []byte, a protocol.Algorithm, pol scheduler.Policy, workers int, maxStates int64, unmap func() error) (*Space, error) {
	return mapSpace(data, a, pol, workers, maxStates, unmap, true)
}

func mapSpace(data []byte, a protocol.Algorithm, pol scheduler.Policy, workers int, maxStates int64, unmap func() error, trusted bool) (*Space, error) {
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		return nil, fmt.Errorf("statespace: %w", err)
	}
	h, arr, err := mapSystem(data, a, enc, StateCap(maxStates), trusted)
	if err != nil {
		return nil, err
	}
	sp := &Space{
		Alg:    a,
		Pol:    pol,
		Enc:    enc,
		States: int(h.states),
		Legit:  arr.legit,
		off:    arr.off,
		succ:   arr.succ,
		prob:   arr.prob,
		mapped: &mapping{unmap: unmap},
	}
	if h.kind == kindFrontier {
		sp.table = NewSortedDedup(arr.globals)
	}
	sp.Workers = sp.poolSize(workers)
	if unmap != nil {
		// Safety net for owners that drop the space without closing it
		// (one-shot experiment paths): reclaim the mapping when the space
		// becomes unreachable. Explicit Close/Materialize clears this.
		runtime.SetFinalizer(sp, func(sp *Space) { sp.Close() })
	}
	return sp, nil
}
