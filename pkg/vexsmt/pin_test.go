package vexsmt

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// digest is the hex sha256 of s.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestPlanCellsPinned pins the exact cell list — membership and order —
// that PlanCells resolves for the paper's plans. Plan order is the shard
// unit and the stream order, so a planner refactor that reorders or
// drops a cell fails here, not in a distant byte-diff.
func TestPlanCellsPinned(t *testing.T) {
	svc := testService(t)
	for _, tc := range []struct {
		name string
		plan Plan
		n    int
		sum  string
	}{
		{"14", Plan{Figures: []string{"14"}}, 54,
			"81d4846e0c48bd8f9d27c39295e80518d0933e43f448927b3c10ccea6862f1a7"},
		{"15", Plan{Figures: []string{"15"}}, 90,
			"89a6ae6ee0817332089cbaff4eef89d1201c54a41485a1aeb699d959ed2fbbf0"},
		{"16", Plan{Figures: []string{"16"}}, 144,
			"673ce6e6537ff9448aa06695faa68f8dc134f20153435db893ed9411406584ca"},
		{"14,15,16", Plan{Figures: []string{"14", "15", "16"}}, 144,
			"e56a347cf8693819435f057ccc87a77507f56125b5386e72582d4ae26658ba58"},
		{"sweep", Plan{Sweep: true}, 144,
			"673ce6e6537ff9448aa06695faa68f8dc134f20153435db893ed9411406584ca"},
		{"14xstatic,tage", Plan{Figures: []string{"14"}, Predictors: []string{"static", "tage"}}, 108,
			"92c33a04c6eefd4cd19b33ee96b0cd9565891c3d084ac49c140a4635ed2fad0b"},
	} {
		cells, err := svc.PlanCells(tc.plan)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		names := make([]string, len(cells))
		for i, c := range cells {
			names[i] = c.String()
		}
		if len(cells) != tc.n {
			t.Errorf("%s: %d cells, want %d", tc.name, len(cells), tc.n)
		}
		if got := digest(strings.Join(names, "\n")); got != tc.sum {
			t.Errorf("%s: cell list digest %s, want %s", tc.name, got, tc.sum)
		}
	}
}

// TestRenderFigurePinned pins every figure's text rendering at scale
// 20000 byte for byte: the numbers (simulation, series assembly,
// averaging) and the layout (tables, bars, paper headlines) together.
func TestRenderFigurePinned(t *testing.T) {
	svc := testService(t)
	for _, tc := range []struct{ fig, sum string }{
		{"13a", "01aac70f591cb31fd1bb3bef5b5c7ea3dc8aba838d02c74e7e2885c8b6ed4128"},
		{"13b", "e0f963206283a026eebef6b88f636474930eecd4fe35d232ceb90545e42ab389"},
		{"14", "b5c648f0ec70f79513a71b3815047e4fbe027c2fbbd285fa4b17c2049ab78644"},
		{"15", "8c3c081017e034ecec14d947f152ae483b2ff7c8a2f362e0d97bef3367cec60d"},
		{"16", "dc97e663a8afb3b98d0e3ed82dbcc1dd56472c9b0932cae677fa5944984816a5"},
	} {
		text, err := svc.RenderFigure(context.Background(), tc.fig)
		if err != nil {
			t.Fatalf("figure %s: %v", tc.fig, err)
		}
		if got := digest(text); got != tc.sum {
			t.Errorf("figure %s: rendering digest %s, want %s", tc.fig, got, tc.sum)
		}
	}
}
