package vexsmt

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// testScale keeps simulation-backed tests fast; assertions are structural
// or bit-identity, never statistical.
const testScale = 20000

func testService(t *testing.T, opts ...Option) *Service {
	t.Helper()
	svc, err := New(append([]Option{WithScale(testScale)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// encodeCanonical returns rs's canonical encoding without mutating it.
func encodeCanonical(t *testing.T, rs *ResultSet) string {
	t.Helper()
	cp := &ResultSet{Meta: rs.Meta, Cells: append([]CellResult(nil), rs.Cells...)}
	cp.Canonicalize()
	var buf bytes.Buffer
	if err := EncodeResults(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestSchemaRoundTrip(t *testing.T) {
	svc := testService(t)
	rs, err := svc.Collect(context.Background(), Plan{Cells: []CellSpec{
		{Mix: "mmhh", Technique: "CSMT", Threads: 4},
		{Mix: "mmhh", Technique: "CCSI AS", Threads: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(rs.Cells))
	}

	var buf bytes.Buffer
	if err := EncodeResults(&buf, rs); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != rs.Meta {
		t.Fatalf("meta round-trip: got %+v, want %+v", got.Meta, rs.Meta)
	}
	if len(got.Cells) != len(rs.Cells) {
		t.Fatalf("cell count round-trip: got %d, want %d", len(got.Cells), len(rs.Cells))
	}
	for i := range rs.Cells {
		if got.Cells[i] != rs.Cells[i] {
			t.Errorf("cell %d round-trip:\ngot:  %+v\nwant: %+v", i, got.Cells[i], rs.Cells[i])
		}
	}
}

func TestSchemaRejectsWrongVersion(t *testing.T) {
	doc := `{"meta":{"schema_version":99,"seed":1,"scale":100,"parallelism":1},"cells":[]}`
	if _, err := DecodeResults(strings.NewReader(doc)); err == nil {
		t.Fatal("schema version 99 accepted")
	} else if !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("wrong error: %v", err)
	}
	// Version 0 (missing field) must also be rejected: absence of a version
	// is not a claim of compatibility.
	if _, err := DecodeResults(strings.NewReader(`{"cells":[]}`)); err == nil {
		t.Fatal("versionless document accepted")
	}
}

func TestSchemaRejectsGarbage(t *testing.T) {
	if _, err := DecodeResults(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEncodeStampsVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeResults(&buf, &ResultSet{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema_version": 1`) {
		t.Fatalf("encoded document missing schema version:\n%s", buf.String())
	}
}

func TestCollectDeterministicOrderAndSpeedup(t *testing.T) {
	// Two Collects of the same plan must encode byte-identically, and the
	// paired-seed contract must hold: CSMT and CCSI AS cells of one
	// (mix, threads) share a seed.
	plan := Plan{Cells: []CellSpec{
		{Mix: "mmhh", Technique: "CCSI AS", Threads: 4},
		{Mix: "mmhh", Technique: "CSMT", Threads: 4},
		{Mix: "llll", Technique: "CSMT", Threads: 2},
	}}
	a, err := testService(t).Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testService(t).Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	var abuf, bbuf bytes.Buffer
	if err := EncodeResults(&abuf, a); err != nil {
		t.Fatal(err)
	}
	if err := EncodeResults(&bbuf, b); err != nil {
		t.Fatal(err)
	}
	if abuf.String() != bbuf.String() {
		t.Fatal("two identical Collects encoded differently")
	}
	var csmt, ccsi CellResult
	for _, c := range a.Cells {
		if c.Mix != "mmhh" {
			continue
		}
		switch c.Technique {
		case "CSMT":
			csmt = c
		case "CCSI AS":
			ccsi = c
		}
	}
	if csmt.Seed == 0 || csmt.Seed != ccsi.Seed {
		t.Fatalf("paired cells have unpaired seeds: CSMT %x, CCSI AS %x", csmt.Seed, ccsi.Seed)
	}
	if SpeedupPct(ccsi, csmt) == 0 {
		t.Error("speedup of CCSI AS over CSMT is exactly zero — suspicious")
	}
}
