// Package trace records synthetic instruction streams to a compact binary
// format and replays them as simulator inputs. Recorded traces make
// experiments exactly portable: a trace file pins the workload independent
// of future generator changes, the same way the paper's binaries pinned
// theirs.
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
//	  flags  uint8            (bit0 taken, bit1 hasComm)
//	  used   uint8            (bitmask of non-empty clusters)
//	  per used cluster:
//	    packed uint8 ×2       (ops|alu, mul|mem nibbles)
//	    cflags uint8          (bit0 load, bit1 stor, bit2 comm)
//	    addr   uint64         (present iff mem != 0)
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

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

// Write serializes a recorded trace.
func Write(w io.Writer, name string, clusters int, instrs []synth.TInst) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if clusters <= 0 || clusters > isa.MaxClusters {
		return fmt.Errorf("trace: bad cluster count %d", clusters)
	}
	if len(name) > 255 {
		return fmt.Errorf("trace: name too long")
	}
	bw.WriteByte(byte(clusters))
	bw.WriteByte(byte(len(name)))
	bw.WriteString(name)
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(instrs)))
	bw.Write(buf[:4])

	for i := range instrs {
		ti := &instrs[i]
		binary.LittleEndian.PutUint64(buf[:8], ti.PC)
		bw.Write(buf[:8])
		binary.LittleEndian.PutUint32(buf[:4], ti.Size)
		bw.Write(buf[:4])
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
		bw.WriteByte(flags)
		var used byte
		for c := 0; c < clusters; c++ {
			if !ti.Demand.B[c].IsEmpty() {
				used |= 1 << uint(c)
			}
		}
		bw.WriteByte(used)
		for c := 0; c < clusters; c++ {
			if used&(1<<uint(c)) == 0 {
				continue
			}
			b := ti.Demand.B[c]
			if b.Ops > 15 || b.ALU > 15 || b.Mul > 15 || b.Mem > 15 {
				return fmt.Errorf("trace: bundle counts exceed nibble range: %+v", b)
			}
			bw.WriteByte(b.Ops<<4 | b.ALU)
			bw.WriteByte(b.Mul<<4 | b.Mem)
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
			bw.WriteByte(cf)
			if b.Mem != 0 {
				binary.LittleEndian.PutUint64(buf[:8], ti.MemAddr[c])
				bw.Write(buf[:8])
			}
		}
	}
	return bw.Flush()
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

// Decode deserializes a trace held in memory. The returned name and
// instructions are copies: nothing aliases data, so a caller may release
// or reuse the buffer (an unmapped file, say) as soon as Decode returns.
// Bytes after the last record are ignored.
//
// The record count in the header is untrusted. The arena is allocated
// once, at min(count, remaining bytes / minRecord) records, so a corrupt
// header claiming 4G instructions fails on the first short record
// instead of sizing a slice to the claim.
func Decode(data []byte) (name string, clusters int, instrs []synth.TInst, err error) {
	if len(data) < len(magic) {
		return "", 0, nil, fmt.Errorf("trace: %w", io.ErrUnexpectedEOF)
	}
	if [4]byte(data) != magic {
		return "", 0, nil, fmt.Errorf("trace: bad magic %q", data[:4])
	}
	p := data[4:]
	if len(p) < 2 {
		return "", 0, nil, fmt.Errorf("trace: header: %w", io.ErrUnexpectedEOF)
	}
	clusters = int(p[0])
	if clusters <= 0 || clusters > isa.MaxClusters {
		return "", 0, nil, fmt.Errorf("trace: bad cluster count %d", clusters)
	}
	nl := int(p[1])
	p = p[2:]
	if len(p) < nl+4 {
		return "", 0, nil, fmt.Errorf("trace: header: %w", io.ErrUnexpectedEOF)
	}
	name = string(p[:nl])
	count := binary.LittleEndian.Uint32(p[nl:])
	p = p[nl+4:]

	n := len(p) / minRecord
	if uint64(count) < uint64(n) {
		n = int(count)
	}
	instrs = make([]synth.TInst, n)
	short := func(i int) error { return fmt.Errorf("trace: instr %d: %w", i, io.ErrUnexpectedEOF) }
	for i := range instrs {
		if len(p) < minRecord {
			return "", 0, nil, short(i)
		}
		ti := &instrs[i]
		ti.PC = binary.LittleEndian.Uint64(p)
		ti.Size = binary.LittleEndian.Uint32(p[8:])
		flags, used := p[12], p[13]
		p = p[minRecord:]
		ti.Taken = flags&1 != 0
		ti.Demand.HasComm = flags&2 != 0
		// Traces written before the IsBranch flag existed still mark taken
		// branches, so OR with Taken instead of trusting bit 2 alone.
		ti.IsBranch = flags&4 != 0 || ti.Taken
		for c := 0; c < clusters; c++ {
			if used&(1<<uint(c)) == 0 {
				continue
			}
			if len(p) < 3 {
				return "", 0, nil, short(i)
			}
			b := &ti.Demand.B[c]
			b.Ops, b.ALU = p[0]>>4, p[0]&15
			b.Mul, b.Mem = p[1]>>4, p[1]&15
			b.Load = p[2]&1 != 0
			b.Stor = p[2]&2 != 0
			b.Comm = p[2]&4 != 0
			p = p[3:]
			if b.Mem != 0 {
				if len(p) < 8 {
					return "", 0, nil, short(i)
				}
				ti.MemAddr[c] = binary.LittleEndian.Uint64(p)
				p = p[8:]
			}
		}
	}
	if uint64(n) < uint64(count) {
		// n records took at least n*minRecord bytes, so fewer than
		// minRecord are left: record n is torn.
		return "", 0, nil, short(n)
	}
	return name, clusters, instrs, nil
}

// Replayer serves a recorded trace as a synth.Stream. The trace loops if
// the consumer reads past its end (mirroring benchmark respawn).
type Replayer struct {
	name   string
	instrs []synth.TInst
	pos    int
}

// NewReplayer wraps a recorded instruction sequence.
func NewReplayer(name string, instrs []synth.TInst) (*Replayer, error) {
	if len(instrs) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return &Replayer{name: name, instrs: instrs}, nil
}

// Next implements synth.Stream.
func (r *Replayer) Next(t *synth.TInst) {
	*t = r.instrs[r.pos]
	r.pos++
	if r.pos == len(r.instrs) {
		r.pos = 0
	}
}

// NextN implements synth.BatchStream. The hot case — a batch that fits
// before the wrap point — is a single copy plus one modular position
// advance; only batches that straddle the end fall back to the wrap loop.
// The method never allocates (pinned by TestReplayerNextNZeroAlloc).
func (r *Replayer) NextN(out []synth.TInst) {
	for {
		n := copy(out, r.instrs[r.pos:])
		if n == len(out) {
			r.pos += n
			if r.pos == len(r.instrs) {
				r.pos = 0
			}
			return
		}
		r.pos = 0
		out = out[n:]
	}
}

// Reset implements synth.Stream; the variant is ignored (a recorded trace
// replays identically).
func (r *Replayer) Reset(uint64) { r.pos = 0 }

// Length implements synth.Stream: one full pass over the trace.
func (r *Replayer) Length(int64) int64 { return int64(len(r.instrs)) }

// Name implements synth.Stream.
func (r *Replayer) Name() string { return r.name }

var _ synth.BatchStream = (*Replayer)(nil)
