package trace_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"testing"
	"unsafe"

	"vexsmt/internal/isa"
	"vexsmt/internal/synth"
	"vexsmt/internal/trace"
)

// referenceRead is the streaming VXT1 decoder trace.Decode replaced: every
// field read through bufio and io.ReadFull, the arena grown by append. It
// is kept as the oracle FuzzDecodeMatchesReference compares Decode with.
func referenceRead(r io.Reader) (name string, clusters int, instrs []synth.TInst, err error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err = io.ReadFull(br, m[:]); err != nil {
		return "", 0, nil, fmt.Errorf("trace: %w", err)
	}
	if m != [4]byte{'V', 'X', 'T', '1'} {
		return "", 0, nil, fmt.Errorf("trace: bad magic %q", m)
	}
	cb, err := br.ReadByte()
	if err != nil {
		return "", 0, nil, err
	}
	clusters = int(cb)
	if clusters <= 0 || clusters > isa.MaxClusters {
		return "", 0, nil, fmt.Errorf("trace: bad cluster count %d", clusters)
	}
	nl, err := br.ReadByte()
	if err != nil {
		return "", 0, nil, err
	}
	nameBytes := make([]byte, nl)
	if _, err = io.ReadFull(br, nameBytes); err != nil {
		return "", 0, nil, err
	}
	name = string(nameBytes)
	var buf [8]byte
	if _, err = io.ReadFull(br, buf[:4]); err != nil {
		return "", 0, nil, err
	}
	count := binary.LittleEndian.Uint32(buf[:4])
	capHint := int(count)
	if capHint > 4096 {
		capHint = 4096
	}
	instrs = make([]synth.TInst, 0, capHint)
	for i := 0; i < int(count); i++ {
		instrs = append(instrs, synth.TInst{})
		ti := &instrs[i]
		if _, err = io.ReadFull(br, buf[:8]); err != nil {
			return "", 0, nil, fmt.Errorf("trace: instr %d: %w", i, err)
		}
		ti.PC = binary.LittleEndian.Uint64(buf[:8])
		if _, err = io.ReadFull(br, buf[:4]); err != nil {
			return "", 0, nil, err
		}
		ti.Size = binary.LittleEndian.Uint32(buf[:4])
		flags, err2 := br.ReadByte()
		if err2 != nil {
			return "", 0, nil, err2
		}
		ti.Taken = flags&1 != 0
		ti.Demand.HasComm = flags&2 != 0
		ti.IsBranch = flags&4 != 0 || ti.Taken
		used, err2 := br.ReadByte()
		if err2 != nil {
			return "", 0, nil, err2
		}
		for c := 0; c < clusters; c++ {
			if used&(1<<uint(c)) == 0 {
				continue
			}
			var pk [3]byte
			if _, err = io.ReadFull(br, pk[:]); err != nil {
				return "", 0, nil, err
			}
			b := &ti.Demand.B[c]
			b.Ops, b.ALU = pk[0]>>4, pk[0]&15
			b.Mul, b.Mem = pk[1]>>4, pk[1]&15
			b.Load = pk[2]&1 != 0
			b.Stor = pk[2]&2 != 0
			b.Comm = pk[2]&4 != 0
			if b.Mem != 0 {
				if _, err = io.ReadFull(br, buf[:8]); err != nil {
					return "", 0, nil, err
				}
				ti.MemAddr[c] = binary.LittleEndian.Uint64(buf[:8])
			}
		}
	}
	return name, clusters, instrs, nil
}

// FuzzDecodeMatchesReference is the differential check on the in-memory
// decoder: on every input Decode and the streaming reference must accept
// and reject alike, and what they accept must be the same trace.
func FuzzDecodeMatchesReference(f *testing.F) {
	valid := validTraceBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                              // truncated inside a memory address
	f.Add(valid[:len(valid)-9])                              // truncated inside a bundle
	f.Add(append(append([]byte(nil), valid...), 0xAA, 0xBB)) // trailing bytes
	f.Add([]byte("VXT0junk"))
	f.Add(valid[:9])
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[10:14], 0xFFFFFFFF)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		name, clusters, instrs, err := trace.Decode(data)
		rName, rClusters, rInstrs, rErr := referenceRead(bytes.NewReader(data))
		if (err == nil) != (rErr == nil) {
			t.Fatalf("Decode err=%v, reference err=%v", err, rErr)
		}
		if err != nil {
			return
		}
		if name != rName || clusters != rClusters || len(instrs) != len(rInstrs) {
			t.Fatalf("Decode %q/%d/%d, reference %q/%d/%d",
				name, clusters, len(instrs), rName, rClusters, len(rInstrs))
		}
		for i := range instrs {
			if instrs[i] != rInstrs[i] {
				t.Fatalf("instr %d: Decode %+v, reference %+v", i, instrs[i], rInstrs[i])
			}
		}
		if cap(instrs) != len(instrs) {
			t.Fatalf("arena cap %d for %d instructions", cap(instrs), len(instrs))
		}
	})
}

// TestDecodeArenaBoundedByBody pins the arena sizing: a header claiming
// 2^32-1 instructions over an N-byte body allocates at most N/14 records
// (14 bytes is the smallest record), however far the decode gets.
func TestDecodeArenaBoundedByBody(t *testing.T) {
	const records = 1000
	var buf bytes.Buffer
	buf.WriteString("VXT1")
	buf.WriteByte(1) // clusters
	buf.WriteByte(0) // name length
	binary.Write(&buf, binary.LittleEndian, uint32(0xFFFFFFFF))
	// records empty instructions of exactly 14 bytes, then a torn one.
	body := make([]byte, records*14+5)
	buf.Write(body)
	data := buf.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := trace.Decode(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated trace accepted")
	}
	limit := uint64(len(body)/14)*uint64(unsafe.Sizeof(synth.TInst{})) + 16<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("decode allocated %d bytes, want at most %d (%d records)", got, limit, len(body)/14)
	}
}
