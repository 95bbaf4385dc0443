package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"dspatch/internal/memaddr"
)

// traceMagic opens every trace file; the trailing digits version the layout.
const traceMagic = "DSPTRC01"

// Export writes the first n recorded refs of the stream (n <= 0, or n past
// the recording, means everything recorded) as a self-describing binary
// scenario file: the magic, the identifying header (name, seed, ref count),
// the five columns, and a trailing CRC-32 over everything after the magic.
// Files are loadable with Import in any later process — traces recorded
// from the synthetic generators and traces captured externally become the
// same kind of artifact.
func (m *Materialized) Export(w io.Writer, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.decodeIfNeededLocked(); err != nil {
		return err
	}
	if n <= 0 || n > m.n {
		n = m.n
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)

	writeUvarint(out, uint64(len(m.name)))
	io.WriteString(out, m.name)
	writeUvarint(out, zigzag(m.seed))
	writeUvarint(out, uint64(n))

	// The whole dictionary ships even for a prefix export: unreferenced
	// entries only cost a few bytes and keep the columns index-compatible.
	writeUvarint(out, uint64(len(m.pcDict)))
	for _, pc := range m.pcDict {
		writeUvarint(out, uint64(pc))
	}
	// Lines travel delta-encoded (zigzag-varint): most deltas are a few
	// lines, so the dominant column compresses to a byte or two per ref.
	deltas := make([]byte, 0, 2*n)
	var last memaddr.Line
	var vbuf [binary.MaxVarintLen64]byte
	for _, l := range m.lines[:n] {
		d := int64(l) - int64(last)
		last = l
		deltas = append(deltas, vbuf[:binary.PutUvarint(vbuf[:], zigzag(d))]...)
	}
	writeUvarint(out, uint64(len(deltas)))
	out.Write(deltas)
	var buf [4]byte
	for _, idx := range m.pcIdx[:n] {
		binary.LittleEndian.PutUint32(buf[:], idx)
		out.Write(buf[:4])
	}
	for _, g := range m.gaps[:n] {
		binary.LittleEndian.PutUint16(buf[:2], g)
		out.Write(buf[:2])
	}
	// The flag columns travel as ceil(n/64) words: the complete words plus,
	// when n is not word-aligned, the partial word (which may live in the
	// in-progress accumulator or mid-array for a prefix export), masked to
	// the exported refs.
	writeFlagColumn := func(words []uint64, cur uint64) {
		var b [8]byte
		for _, v := range words[:n/64] {
			binary.LittleEndian.PutUint64(b[:], v)
			out.Write(b[:])
		}
		if n%64 != 0 {
			partial := cur
			if n/64 < len(words) {
				partial = words[n/64]
			}
			partial &= uint64(1)<<uint(n%64) - 1
			binary.LittleEndian.PutUint64(b[:], partial)
			out.Write(b[:])
		}
	}
	writeFlagColumn(m.write, m.writeCur)
	writeFlagColumn(m.dep, m.depCur)

	binary.LittleEndian.PutUint32(buf[:4], crc.Sum32())
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// Import reads a trace file written by Export, eagerly: the whole stream is
// read, checksummed and decoded before it returns. A truncated, corrupted or
// differently-versioned file returns an error rather than a partially-loaded
// trace. For O(1)-startup loading of files on disk, see ImportFile.
func Import(r io.Reader) (*Materialized, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: import: %w", err)
	}
	m, err := importBytes(data, nil)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ImportFile opens a trace file written by Export with O(1) startup cost:
// only the header (magic, name, seed, ref count) is parsed up front — the
// column payload is memory-mapped where the platform supports it and
// checksummed + decoded on first replay, so importing a huge trace costs
// almost nothing until a simulation actually pulls refs. Corruption past the
// header is still rejected before the first ref replays: Validate surfaces
// the decode error eagerly, and Cursor panics with it otherwise.
func ImportFile(path string) (*Materialized, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: import %s: %w", path, err)
	}
	m, err := importBytes(data, unmap)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	return m, nil
}

// importBytes parses only the header of an exported trace — magic, name,
// seed, ref count — and returns a Materialized whose columns decode lazily
// from the retained body on first use. unmap, when non-nil, releases data's
// backing mapping once the columns are decoded (or decoding fails).
func importBytes(data []byte, unmap func()) (*Materialized, error) {
	if len(data) < len(traceMagic)+4 {
		return nil, fmt.Errorf("trace: import: file too short (%d bytes)", len(data))
	}
	if string(data[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("trace: import: bad magic %q (want %q)", data[:len(traceMagic)], traceMagic)
	}
	body, tail := data[len(traceMagic):len(data)-4], data[len(data)-4:]

	d := &decoder{b: body}
	nameLen := d.uvarint()
	if d.err == nil && nameLen > uint64(len(body)) {
		return nil, fmt.Errorf("trace: import: implausible name length %d for a %d-byte body", nameLen, len(body))
	}
	name := string(d.take(int(nameLen)))
	seed := unzigzag(d.uvarint())
	n := int(d.uvarint())
	if d.err != nil {
		return nil, fmt.Errorf("trace: import: %w", d.err)
	}
	// Validate the declared count against the body size before allocating
	// anything from it: a hostile or hand-mangled file must be rejected, not
	// trusted into a huge or negative make(). Every ref costs at least 6
	// bytes across the fixed-width columns.
	if n < 0 || n > len(body)/6 {
		return nil, fmt.Errorf("trace: import: implausible ref count %d for a %d-byte body", n, len(body))
	}
	return &Materialized{
		name:    name,
		seed:    seed,
		n:       n,
		raw:     body,
		hdrOff:  len(body) - len(d.b),
		fileCRC: binary.LittleEndian.Uint32(tail),
		unmap:   unmap,
	}, nil
}

// decodeIfNeededLocked decodes a lazily-imported trace's columns on first
// use, releasing the raw body (and its file mapping) either way and latching
// a failure so every later caller sees the same rejection. Fully-decoded and
// generator-backed traces return nil immediately. Callers hold m.mu.
func (m *Materialized) decodeIfNeededLocked() error {
	if m.decodeErr != nil {
		return m.decodeErr
	}
	if m.raw == nil {
		return nil
	}
	err := m.decodeColumnsLocked()
	m.raw = nil
	if m.unmap != nil {
		m.unmap()
		m.unmap = nil
	}
	if err != nil {
		// A failed decode must leave no partial columns behind.
		m.lines, m.pcIdx, m.gaps, m.write, m.dep, m.pcDict = nil, nil, nil, nil, nil, nil
		m.writeCur, m.depCur = 0, 0
		m.decodeErr = err
	}
	return err
}

// decodeColumnsLocked verifies the body checksum and decodes the five
// columns into m. The CRC is verified before any content is trusted, exactly
// as the eager import always did — lazy loading moves the verification to
// first replay, it never skips it.
func (m *Materialized) decodeColumnsLocked() error {
	body := m.raw
	if got := crc32.ChecksumIEEE(body); got != m.fileCRC {
		return fmt.Errorf("trace: import: CRC mismatch (file %08x, computed %08x)", m.fileCRC, got)
	}
	n := m.n
	d := &decoder{b: body[m.hdrOff:]}
	dictLen := int(d.uvarint())
	if dictLen < 0 || dictLen > len(body) {
		return fmt.Errorf("trace: import: implausible PC dictionary size %d", dictLen)
	}
	m.pcDict = make([]memaddr.PC, dictLen)
	for i := range m.pcDict {
		m.pcDict[i] = memaddr.PC(d.uvarint())
	}
	deltaLen := int(d.uvarint())
	deltas := d.take(deltaLen)
	if d.err == nil {
		m.lines = make([]memaddr.Line, 0, n)
		var last memaddr.Line
		for i := 0; i < n; i++ {
			u, w := uvarint(deltas)
			if w <= 0 {
				return fmt.Errorf("trace: import: truncated or non-canonical delta column at ref %d", i)
			}
			deltas = deltas[w:]
			last = memaddr.Line(int64(last) + unzigzag(u))
			m.lines = append(m.lines, last)
		}
		if len(deltas) != 0 {
			return fmt.Errorf("trace: import: %d stray bytes after the delta column", len(deltas))
		}
	}
	m.pcIdx = make([]uint32, n)
	for i := range m.pcIdx {
		m.pcIdx[i] = binary.LittleEndian.Uint32(d.take(4))
	}
	m.gaps = make([]uint16, n)
	for i := range m.gaps {
		m.gaps[i] = binary.LittleEndian.Uint16(d.take(2))
	}
	// Split the flag columns back into complete words + the partial word
	// (held out-of-array in memory; see Materialized).
	full := n / 64
	readFlagColumn := func() ([]uint64, uint64) {
		words := make([]uint64, full)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(d.take(8))
		}
		var cur uint64
		if n%64 != 0 {
			cur = binary.LittleEndian.Uint64(d.take(8))
		}
		return words, cur
	}
	m.write, m.writeCur = readFlagColumn()
	m.dep, m.depCur = readFlagColumn()
	if d.err != nil {
		return fmt.Errorf("trace: import: %w", d.err)
	}
	// Export masks the partial flag words to the exported refs and ends the
	// body with the dep column: anything else has a second encoding.
	if past := ^(uint64(1)<<uint(n%64) - 1); (m.writeCur|m.depCur)&past != 0 {
		return fmt.Errorf("trace: import: flag bits set past ref %d", n)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("trace: import: %d trailing bytes after the columns", len(d.b))
	}
	for _, idx := range m.pcIdx {
		if int(idx) >= dictLen {
			return fmt.Errorf("trace: import: PC index %d outside dictionary of %d", idx, dictLen)
		}
	}
	return nil
}

// decoder walks the import body, latching the first structural error so the
// parse above stays linear.
type decoder struct {
	b   []byte
	err error
}

// take returns the next n bytes. Past an error it returns zeroed scratch of
// at most 8 bytes — enough for the fixed-width column reads to stay in
// bounds — and never allocates from the untrusted length itself.
func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.b) {
		if d.err == nil {
			d.err = fmt.Errorf("truncated body (need %d bytes, have %d)", n, len(d.b))
		}
		return make([]byte, min(max(n, 0), 8))
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, w := uvarint(d.b)
	if w <= 0 {
		d.err = fmt.Errorf("truncated or non-canonical varint")
		return 0
	}
	d.b = d.b[w:]
	return u
}

// uvarint is binary.Uvarint restricted to the minimal encoding Export
// writes: a multi-byte varint whose last byte is zero has a shorter form,
// so it is rejected (w == 0) like a truncated one.
func uvarint(b []byte) (uint64, int) {
	u, w := binary.Uvarint(b)
	if w > 1 && b[w-1] == 0 {
		return 0, 0
	}
	return u, w
}

// writeUvarint writes a varint to w; errors surface through the CRC check on
// the read side and the final Flush on the write side.
func writeUvarint(w io.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.Write(buf[:binary.PutUvarint(buf[:], v)])
}
