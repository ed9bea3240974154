package shard

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"vexsmt/pkg/vexsmt"
)

// DecodeResultStream reads a vexsmtd NDJSON results stream: zero or more
// cell lines followed by one terminal status object. Every cell line is
// passed to onCell (with CellResult.Err populated from the line's error
// field); reading stops at the terminal line, whose status and error are
// returned. A malformed line is an error — the stream is a machine
// protocol, and resynchronizing on garbage would silently drop cells. A
// stream that ends before a terminal line returns status "" and no
// error; the caller decides whether that means a dead peer.
//
// This is the single NDJSON decoder of the distributed layer — the HTTP
// cell backend and any other plan-stream consumer share it. The line
// shapes themselves are defined next to the encoder the daemon writes
// them with (vexsmt.ParseStreamLine), so the protocol lives in exactly
// one place.
func DecodeResultStream(r io.Reader, onCell func(vexsmt.CellResult)) (status, errMsg string, err error) {
	return decodeResults(newLineScanner(r), onCell)
}

// newLineScanner returns the scanner every NDJSON stream is read with. Its
// buffer starts at 1 KiB — a one-cell stream's longest line is about
// 700 bytes — and grows to the 1 MiB line cap only for lines that need it.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<10), 1<<20)
	return sc
}

// decodeResults is DecodeResultStream over a scanner that may already have
// consumed leading lines (the plan's ack).
func decodeResults(sc *bufio.Scanner, onCell func(vexsmt.CellResult)) (status, errMsg string, err error) {
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		l, err := vexsmt.ParseStreamLine(line)
		if err != nil {
			// No package prefix: callers wrap with their own ("shard:
			// <backend>: ...") and a doubled prefix reads badly.
			return "", "", fmt.Errorf("bad stream line %q: %w", line, err)
		}
		if l.Status != "" {
			return l.Status, l.ErrMsg, nil
		}
		cell := l.CellResult
		cell.Err = l.ErrMsg
		if onCell != nil {
			onCell(cell)
		}
	}
	if err := sc.Err(); err != nil {
		return "", "", fmt.Errorf("stream: %w", err)
	}
	return "", "", nil
}
