package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"vexsmt/pkg/vexsmt"
)

func TestDecodeResultStream(t *testing.T) {
	stream := `
{"mix":"mmhh","technique":"SMT","threads":2,"seed":7,"ipc":1.5,"counters":{"cycles":10}}

{"mix":"llll","technique":"CSMT","threads":4,"error":"boom"}
{"status":"done","error":"","completed":2,"cells":2}
{"mix":"after-terminal","technique":"SMT","threads":2}
`
	var cells []vexsmt.CellResult
	status, errMsg, err := DecodeResultStream(strings.NewReader(stream), func(c vexsmt.CellResult) {
		cells = append(cells, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if status != "done" || errMsg != "" {
		t.Fatalf("status %q err %q", status, errMsg)
	}
	// Blank lines skipped, reading stops at the terminal line.
	if len(cells) != 2 {
		t.Fatalf("%d cells, want 2", len(cells))
	}
	if cells[0].Mix != "mmhh" || cells[0].IPC != 1.5 || cells[0].Counters.Cycles != 10 {
		t.Fatalf("cell 0: %+v", cells[0])
	}
	// The outer error field travels into CellResult.Err.
	if cells[1].Err != "boom" {
		t.Fatalf("cell 1 error %q, want boom", cells[1].Err)
	}
}

func TestDecodeResultStreamMalformedLine(t *testing.T) {
	for name, stream := range map[string]string{
		"not-json":       `{"mix":"mmhh","technique":"SMT","threads":2}` + "\nthis is not json\n",
		"truncated-json": `{"mix":"mmhh","technique":`,
		"wrong-type":     `{"mix":42}`,
	} {
		t.Run(name, func(t *testing.T) {
			calls := 0
			_, _, err := DecodeResultStream(strings.NewReader(stream), func(vexsmt.CellResult) { calls++ })
			if err == nil {
				t.Fatal("malformed line accepted")
			}
			if !strings.Contains(err.Error(), "bad stream line") {
				t.Fatalf("unhelpful error: %v", err)
			}
		})
	}
}

// errAfterReader yields its payload, then fails every subsequent Read —
// the shape of a TCP connection dropping mid-stream.
type errAfterReader struct {
	r   io.Reader
	err error
}

func (e *errAfterReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		return n, e.err
	}
	return n, err
}

func TestDecodeResultStreamConnectionDropBetweenRecords(t *testing.T) {
	// The connection dies cleanly between two NDJSON records: the cells
	// already read were delivered, but the decode must surface the read
	// error — a caller treating this as a complete stream would silently
	// lose every cell after the drop.
	dropErr := errors.New("connection reset by peer")
	r := &errAfterReader{
		r: strings.NewReader(
			`{"mix":"mmhh","technique":"SMT","threads":2}` + "\n" +
				`{"mix":"llll","technique":"CSMT","threads":4}` + "\n"),
		err: dropErr,
	}
	var cells []vexsmt.CellResult
	status, _, err := DecodeResultStream(r, func(c vexsmt.CellResult) { cells = append(cells, c) })
	if !errors.Is(err, dropErr) {
		t.Fatalf("err %v, want the drop error", err)
	}
	if status != "" {
		t.Fatalf("status %q on a dropped stream, want empty", status)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells delivered before the drop, want 2", len(cells))
	}
}

func TestDecodeResultStreamConnectionDropMidLine(t *testing.T) {
	// The connection dies with a record half-written. The fragment must
	// not be delivered as a cell, and the decode must report an error —
	// either the fragment's parse failure or the read error itself; a
	// clean return would let the caller mistake a torn stream for a
	// complete one. (bufio.Scanner hands the buffered fragment to the
	// split function once the read fails, so the parse failure wins.)
	r := &errAfterReader{
		r: strings.NewReader(
			`{"mix":"mmhh","technique":"SMT","threads":2}` + "\n" +
				`{"mix":"llll","techni`), // truncated mid-record, no newline
		err: errors.New("unexpected EOF"),
	}
	calls := 0
	status, _, err := DecodeResultStream(r, func(vexsmt.CellResult) { calls++ })
	if err == nil {
		t.Fatal("torn stream decoded without error")
	}
	if status != "" {
		t.Fatalf("status %q, want empty", status)
	}
	if calls != 1 {
		t.Fatalf("onCell called %d times, want 1 (the complete record only)", calls)
	}
}

func TestDecodeResultStreamNoTerminal(t *testing.T) {
	// A stream that just stops (daemon died) reports status "" without
	// inventing an error — the caller owns that decision.
	status, _, err := DecodeResultStream(strings.NewReader(
		`{"mix":"mmhh","technique":"SMT","threads":2}`+"\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != "" {
		t.Fatalf("status %q, want empty", status)
	}
	// A failed plan's terminal line carries the failure.
	status, errMsg, err := DecodeResultStream(strings.NewReader(
		`{"status":"failed","error":"cell exploded"}`+"\n"), nil)
	if err != nil || status != "failed" || errMsg != "cell exploded" {
		t.Fatalf("status %q errMsg %q err %v", status, errMsg, err)
	}
}

// A one-cell stream, the coordinator's unit of work, is under a kilobyte;
// decoding it must not cost a buffer sized for the 1 MiB line cap.
func TestDecodeResultStreamOneCellAllocs(t *testing.T) {
	var nd bytes.Buffer
	enc := json.NewEncoder(&nd)
	cell := vexsmt.CellResult{CellSpec: vexsmt.CellSpec{Mix: "mmhh", Technique: "CCSI AS", Threads: 4},
		Seed: 1 << 60, IPC: 2.718281828459045}
	if err := enc.Encode(cell); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(map[string]any{"status": "done", "error": "", "completed": 1, "cells": 1}); err != nil {
		t.Fatal(err)
	}
	decode := func() {
		status, _, err := DecodeResultStream(bytes.NewReader(nd.Bytes()), func(vexsmt.CellResult) {})
		if err != nil || status != "done" {
			t.Fatalf("status %q, err %v", status, err)
		}
	}
	decode() // warm up encoding/json's type caches
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 16<<10 {
		t.Fatalf("decoding a %d-byte one-cell stream allocates %d bytes, want < 16 KiB", nd.Len(), per)
	}
}

// The small starting buffer still grows to the 1 MiB line cap, and no
// further.
func TestDecodeResultStreamLineCap(t *testing.T) {
	line := func(n int) string {
		return `{"mix":"mmhh","technique":"SMT","threads":2,"error":"` + strings.Repeat("x", n) + `"}` + "\n"
	}
	var got string
	status, _, err := DecodeResultStream(strings.NewReader(line(900<<10)+`{"status":"done"}`+"\n"),
		func(c vexsmt.CellResult) { got = c.Err })
	if err != nil || status != "done" || len(got) != 900<<10 {
		t.Fatalf("900 KiB line: status %q, err %v, error field %d bytes", status, err, len(got))
	}
	if _, _, err := DecodeResultStream(strings.NewReader(line(1<<20)), nil); err == nil {
		t.Fatal("a line past 1 MiB decoded; want an error")
	}
}
