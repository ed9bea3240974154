// Package trace records synthetic instruction streams to a compact binary
// format and replays them as simulator inputs. Recorded traces make
// experiments exactly portable: a trace file pins the workload independent
// of future generator changes, the same way the paper's binaries pinned
// theirs. In memory a trace stays in its record form (Records, 35-38
// bytes per instruction for the shipped corpus, against 152 for an
// expanded synth.TInst); a Replayer expands each record as it is fetched.
//
// Format (little-endian):
//
//	magic   [4]byte "VXT1"
//	clusters uint8
//	name    uint8 length + bytes
//	count   uint32
//	count × instruction records:
//	  pc     uint64
//	  size   uint32
//	  flags  uint8            (bit0 taken, bit1 hasComm, bit2 isBranch)
//	  used   uint8            (bitmask of non-empty clusters)
//	  per used cluster:
//	    packed uint8 ×2       (ops|alu, mul|mem nibbles)
//	    cflags uint8          (bit0 load, bit1 stor, bit2 comm)
//	    addr   uint64         (present iff mem != 0)
package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"vexsmt/internal/isa"
	"vexsmt/internal/synth"
)

var magic = [4]byte{'V', 'X', 'T', '1'}

// Record drains n instructions from a stream into memory.
func Record(s synth.Stream, n int) []synth.TInst {
	out := make([]synth.TInst, n)
	for i := range out {
		s.Next(&out[i])
	}
	return out
}

// Records is a validated trace body: the cluster count, the record count
// and the VXT1 bytes of exactly that many records. It is immutable by
// contract, so every Replayer of a trace shares one Records.
type Records struct {
	clusters int
	n        int
	data     []byte
}

// Len returns the number of instructions.
func (r Records) Len() int { return r.n }

// Clusters returns the cluster count the records were written for.
func (r Records) Clusters() int { return r.clusters }

// Bytes returns the record bytes. Read-only by contract: they are shared
// by every replayer of the trace.
func (r Records) Bytes() []byte { return r.data }

// Write serializes a recorded trace.
func Write(w io.Writer, name string, clusters int, instrs []synth.TInst) error {
	if len(name) > 255 {
		return fmt.Errorf("trace: name too long")
	}
	recs, err := Encode(clusters, instrs)
	if err != nil {
		return err
	}
	hdr := append(magic[:len(magic):len(magic)], byte(clusters), byte(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(instrs)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(recs.data)
	return err
}

// Encode returns the records Write would emit for instrs, held in memory
// for replay.
func Encode(clusters int, instrs []synth.TInst) (Records, error) {
	if clusters <= 0 || clusters > isa.MaxClusters {
		return Records{}, fmt.Errorf("trace: bad cluster count %d", clusters)
	}
	var data []byte
	for i := range instrs {
		var err error
		if data, err = appendRecord(data, clusters, &instrs[i]); err != nil {
			return Records{}, err
		}
	}
	return Records{clusters: clusters, n: len(instrs), data: data}, nil
}

// appendRecord appends the VXT1 record of ti to dst.
func appendRecord(dst []byte, clusters int, ti *synth.TInst) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, ti.PC)
	dst = binary.LittleEndian.AppendUint32(dst, ti.Size)
	var flags byte
	if ti.Taken {
		flags |= 1
	}
	if ti.Demand.HasComm {
		flags |= 2
	}
	if ti.IsBranch {
		flags |= 4
	}
	var used byte
	for c := 0; c < clusters; c++ {
		if !ti.Demand.B[c].IsEmpty() {
			used |= 1 << uint(c)
		}
	}
	dst = append(dst, flags, used)
	for c := 0; c < clusters; c++ {
		if used&(1<<uint(c)) == 0 {
			continue
		}
		b := ti.Demand.B[c]
		if b.Ops > 15 || b.ALU > 15 || b.Mul > 15 || b.Mem > 15 {
			return nil, fmt.Errorf("trace: bundle counts exceed nibble range: %+v", b)
		}
		var cf byte
		if b.Load {
			cf |= 1
		}
		if b.Stor {
			cf |= 2
		}
		if b.Comm {
			cf |= 4
		}
		dst = append(dst, b.Ops<<4|b.ALU, b.Mul<<4|b.Mem, cf)
		if b.Mem != 0 {
			dst = binary.LittleEndian.AppendUint64(dst, ti.MemAddr[c])
		}
	}
	return dst, nil
}

// minRecord is the size of the smallest instruction record: pc, size,
// flags and used with no cluster bundles.
const minRecord = 8 + 4 + 1 + 1

// Read deserializes a trace from a stream: it reads r to the end and
// decodes the bytes with Decode.
func Read(r io.Reader) (name string, clusters int, instrs []synth.TInst, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return "", 0, nil, fmt.Errorf("trace: %w", err)
	}
	return Decode(data)
}

// Parse validates a trace held in memory and returns its name and
// records. The records are a copy of exactly the header's count of
// records: bytes after the last one are dropped and nothing aliases data,
// so a caller may release or reuse the buffer (an unmapped file, say) as
// soon as Parse returns.
//
// The record count in the header is untrusted. Parse allocates nothing
// sized by it: it walks the body record by record, so a corrupt header
// claiming 4G instructions fails on the first short record.
func Parse(data []byte) (name string, recs Records, err error) {
	name, recs, err = parse(data)
	if err != nil {
		return "", Records{}, err
	}
	own := make([]byte, len(recs.data))
	copy(own, recs.data)
	recs.data = own
	return name, recs, nil
}

// Decode deserializes a trace held in memory into expanded instructions:
// Parse, then every record expanded as a Replayer would. The arena is
// allocated once at its exact size after the body has been validated,
// and nothing aliases data.
func Decode(data []byte) (name string, clusters int, instrs []synth.TInst, err error) {
	name, recs, err := parse(data)
	if err != nil {
		return "", 0, nil, err
	}
	instrs = make([]synth.TInst, recs.n)
	mask := clusterMask(recs.clusters)
	for i, off := 0, 0; i < len(instrs); i++ {
		off += expand(&instrs[i], recs.data[off:], mask)
	}
	return name, recs.clusters, instrs, nil
}

// parse is Parse without the copy: the records alias data.
func parse(data []byte) (name string, recs Records, err error) {
	if len(data) < len(magic) {
		return "", Records{}, fmt.Errorf("trace: %w", io.ErrUnexpectedEOF)
	}
	if [4]byte(data) != magic {
		return "", Records{}, fmt.Errorf("trace: bad magic %q", data[:4])
	}
	p := data[4:]
	if len(p) < 2 {
		return "", Records{}, fmt.Errorf("trace: header: %w", io.ErrUnexpectedEOF)
	}
	clusters := int(p[0])
	if clusters <= 0 || clusters > isa.MaxClusters {
		return "", Records{}, fmt.Errorf("trace: bad cluster count %d", clusters)
	}
	nl := int(p[1])
	p = p[2:]
	if len(p) < nl+4 {
		return "", Records{}, fmt.Errorf("trace: header: %w", io.ErrUnexpectedEOF)
	}
	name = string(p[:nl])
	count := binary.LittleEndian.Uint32(p[nl:])
	p = p[nl+4:]

	mask := clusterMask(clusters)
	off := 0
	for i := uint32(0); i < count; i++ {
		n := recordLen(p[off:], mask)
		if n == 0 {
			return "", Records{}, fmt.Errorf("trace: instr %d: %w", i, io.ErrUnexpectedEOF)
		}
		off += n
	}
	return name, Records{clusters: clusters, n: int(count), data: p[:off:off]}, nil
}

// clusterMask is the used-bits mask of a trace's clusters: bits at or
// above the cluster count are ignored.
func clusterMask(clusters int) byte { return byte(1<<clusters - 1) }

// recordLen returns the length of the record at the start of p, or 0 when
// p ends inside it.
func recordLen(p []byte, mask byte) int {
	if len(p) < minRecord {
		return 0
	}
	n := minRecord
	for u := p[13] & mask; u != 0; u &= u - 1 {
		if len(p) < n+3 {
			return 0
		}
		if p[n+1]&15 != 0 {
			n += 3 + 8
		} else {
			n += 3
		}
	}
	if len(p) < n {
		return 0
	}
	return n
}

// expand fills t from the validated record at the start of p and returns
// the record's length. Every field the record does not set is zeroed, so
// t may be a reused fetch-buffer slot.
func expand(t *synth.TInst, p []byte, mask byte) int {
	*t = synth.TInst{}
	t.PC = binary.LittleEndian.Uint64(p)
	t.Size = binary.LittleEndian.Uint32(p[8:])
	flags := p[12]
	t.Taken = flags&1 != 0
	t.Demand.HasComm = flags&2 != 0
	// Traces written before the IsBranch flag existed still mark taken
	// branches, so OR with Taken instead of trusting bit 2 alone.
	t.IsBranch = flags&(4|1) != 0
	n := minRecord
	for u := p[13] & mask; u != 0; u &= u - 1 {
		c := bits.TrailingZeros8(u) & 7 // < 8 for u != 0; the mask spares a bounds check
		q0, q1, q2 := p[n], p[n+1], p[n+2]
		b := &t.Demand.B[c]
		b.Ops, b.ALU = q0>>4, q0&15
		b.Mul, b.Mem = q1>>4, q1&15
		b.Load = q2&1 != 0
		b.Stor = q2&2 != 0
		b.Comm = q2&4 != 0
		t.Ops |= uint64(b.Ops) << (8 * uint(c))
		if b.Ops != 0 {
			t.Live |= 1 << uint(c)
		}
		if b.Load {
			t.Loads |= 1 << uint(c)
		}
		if b.Stor {
			t.Stores |= 1 << uint(c)
		}
		if b.Comm {
			t.Comm |= 1 << uint(c)
		}
		n += 3
		if b.Mem != 0 {
			t.MemAddr[c] = binary.LittleEndian.Uint64(p[n:])
			n += 8
		}
	}
	return n
}

// Replayer serves a recorded trace as a synth.Stream, expanding each
// record into the caller's instruction as it is read. The trace loops if
// the consumer reads past its end (mirroring benchmark respawn). Its
// cursor is one byte offset: the records end exactly at the last one, so
// the offset reaching the end is the wrap point.
type Replayer struct {
	name string
	recs Records
	mask byte
	off  int
}

// NewReplayer returns a cursor over shared records; it allocates only
// the cursor.
func NewReplayer(name string, recs Records) (*Replayer, error) {
	if recs.n == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return &Replayer{name: name, recs: recs, mask: clusterMask(recs.clusters)}, nil
}

// Next implements synth.Stream.
func (r *Replayer) Next(t *synth.TInst) {
	r.off += expand(t, r.recs.data[r.off:], r.mask)
	if r.off == len(r.recs.data) {
		r.off = 0
	}
}

// NextN implements synth.BatchStream: len(out) successive Next calls with
// the cursor kept in registers. The method never allocates (pinned by
// TestReplayerNextNZeroAlloc).
func (r *Replayer) NextN(out []synth.TInst) {
	data, mask, off := r.recs.data, r.mask, r.off
	for i := range out {
		off += expand(&out[i], data[off:], mask)
		if off == len(data) {
			off = 0
		}
	}
	r.off = off
}

// Reset implements synth.Stream; the variant is ignored (a recorded trace
// replays identically).
func (r *Replayer) Reset(uint64) { r.off = 0 }

// Length implements synth.Stream: one full pass over the trace.
func (r *Replayer) Length(int64) int64 { return int64(r.recs.n) }

// Name implements synth.Stream.
func (r *Replayer) Name() string { return r.name }

var _ synth.BatchStream = (*Replayer)(nil)
