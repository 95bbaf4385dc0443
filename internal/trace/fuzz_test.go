package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// withCRC returns a copy of data whose 4-byte tail is the CRC-32 of the body
// between the magic and the tail, so a mutated input reaches the column
// decoder instead of stopping at the checksum. Inputs too short to hold a
// magic and a tail come back unchanged.
func withCRC(data []byte) []byte {
	if len(data) < len(traceMagic)+4 {
		return data
	}
	out := bytes.Clone(data)
	body := out[len(traceMagic) : len(out)-4]
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(body))
	return out
}

// FuzzImport feeds arbitrary bytes to the DSPTRC01 decoder: Import (the
// header parse plus the lazy column decode it forces through Validate) must
// never panic, and any input it accepts must re-export to exactly the same
// bytes. The format has one encoding per stream, so a decoder that accepts
// any other encoding would silently normalize what it was given. Each input
// is tried as given and with its CRC tail recomputed. Accepted traces are
// also replayed to the end.
func FuzzImport(f *testing.F) {
	w, _ := ByName("tpcc")
	for _, n := range []int{0, 1, 63, 64, 130} {
		m := &Materialized{name: w.Name, seed: 7, gen: w.Build(7)}
		m.ensure(n)
		var buf bytes.Buffer
		if err := m.Export(&buf, n); err != nil {
			f.Fatalf("export %d refs: %v", n, err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withCRC(data)} {
			m, err := Import(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := m.Export(&out, 0); err != nil {
				t.Fatalf("re-export of an accepted trace: %v", err)
			}
			if !bytes.Equal(out.Bytes(), in) {
				t.Fatalf("accepted input re-exports differently:\nin:  %x\nout: %x", in, out.Bytes())
			}
			cur := m.Cursor(m.Len())
			var r Ref
			for i := m.Len(); i > 0; i-- {
				cur.Next(&r)
			}
		}
	})
}
