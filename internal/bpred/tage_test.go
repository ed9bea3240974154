package bpred

import (
	"os"
	"path/filepath"
	"testing"

	"vexsmt/internal/synth"
	"vexsmt/internal/trace"
)

// refTAGE is the TAGE predictor as it was before the folded histories and
// the lookup memo: every index and tag re-folds the full history, and
// Predict and Update each make their own lookup. It is the oracle
// TestTAGEMatchesReference holds tage to.
type refTAGE struct {
	base    [1 << tableBits]uint8
	banks   [len(tageHists)][1 << tageBankBits]tageEntry
	hist    uint64
	updates uint64
}

func newRefTAGE() *refTAGE {
	t := &refTAGE{}
	for i := range t.base {
		t.base[i] = 1
	}
	return t
}

// refFold compresses the low bits history bits of h into width bits by
// XOR-folding successive chunks.
func refFold(h uint64, bits, width uint) uint64 {
	h &= ^uint64(0) >> (64 - bits)
	var f uint64
	for ; h != 0; h >>= width {
		f ^= h & (1<<width - 1)
	}
	return f
}

func (t *refTAGE) index(bank int, pc uint64) uint64 {
	h := refFold(t.hist, tageHists[bank], tageBankBits)
	return ((pc >> 2) ^ (pc >> (2 + tageBankBits)) ^ h ^ uint64(bank)) & (1<<tageBankBits - 1)
}

func (t *refTAGE) tag(bank int, pc uint64) uint8 {
	h := refFold(t.hist, tageHists[bank], tageTagBits) ^ refFold(t.hist, tageHists[bank], tageTagBits-1)<<1
	return uint8((pc >> 2) ^ (pc >> (2 + tageTagBits)) ^ h ^ uint64(bank)<<3)
}

func (t *refTAGE) lookup(pc uint64) (provider int, providerIdx uint64, altPred bool) {
	provider = -1
	altPred = ctr2Taken(t.base[(pc>>2)&(1<<tableBits-1)])
	for b := len(t.banks) - 1; b >= 0; b-- {
		i := t.index(b, pc)
		if t.banks[b][i].tag != t.tag(b, pc) {
			continue
		}
		if provider < 0 {
			provider, providerIdx = b, i
			continue
		}
		altPred = t.banks[b][i].ctr >= 0
		return provider, providerIdx, altPred
	}
	return provider, providerIdx, altPred
}

func (t *refTAGE) Predict(pc uint64) bool {
	provider, idx, altPred := t.lookup(pc)
	if provider < 0 {
		return altPred
	}
	return t.banks[provider][idx].ctr >= 0
}

func (t *refTAGE) Update(pc uint64, taken bool) {
	provider, idx, altPred := t.lookup(pc)
	pred := altPred
	if provider >= 0 {
		pred = t.banks[provider][idx].ctr >= 0
	}
	if provider >= 0 {
		e := &t.banks[provider][idx]
		if pred != altPred {
			if pred == taken {
				if e.u < 3 {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		if taken {
			if e.ctr < 3 {
				e.ctr++
			}
		} else if e.ctr > -4 {
			e.ctr--
		}
	}
	bi := (pc >> 2) & (1<<tableBits - 1)
	t.base[bi] = ctr2Update(t.base[bi], taken)
	if pred != taken && provider < len(t.banks)-1 {
		allocated := false
		for b := provider + 1; b < len(t.banks); b++ {
			i := t.index(b, pc)
			if t.banks[b][i].u == 0 {
				ctr := int8(-1)
				if taken {
					ctr = 0
				}
				t.banks[b][i] = tageEntry{tag: t.tag(b, pc), ctr: ctr}
				allocated = true
				break
			}
		}
		if !allocated {
			for b := provider + 1; b < len(t.banks); b++ {
				i := t.index(b, pc)
				if t.banks[b][i].u > 0 {
					t.banks[b][i].u--
				}
			}
		}
	}
	t.hist <<= 1
	if taken {
		t.hist |= 1
	}
	t.updates++
	if t.updates%tageAgePeriod == 0 {
		for b := range t.banks {
			for i := range t.banks[b] {
				t.banks[b][i].u >>= 1
			}
		}
	}
}

// corpusBranches returns the (pc, taken) branch stream of every trace in
// the checked-in corpus, each replayed for passes full passes.
func corpusBranches(t *testing.T, passes int) map[string][]event {
	t.Helper()
	paths, err := filepath.Glob("../../examples/corpus/*.vxt")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus traces: %v", err)
	}
	out := map[string][]event{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name, recs, err := trace.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		r, err := trace.NewReplayer(name, recs)
		if err != nil {
			t.Fatal(err)
		}
		var ti synth.TInst
		for i := 0; i < passes*recs.Len(); i++ {
			r.Next(&ti)
			if ti.IsBranch {
				out[name] = append(out[name], event{pc: ti.PC, taken: ti.Taken})
			}
		}
	}
	return out
}

// TestTAGEMatchesReference drives tage and the reference side by side:
// every prediction must agree, and at checkpoints and at the end so must
// the history, every table entry and each bank's folded history. The
// synthetic stream is long enough to cross a usefulness decay before a
// Reset near its end, which checks that the folds and the memo restart.
func TestTAGEMatchesReference(t *testing.T) {
	streams := corpusBranches(t, 16)
	streams["synth"] = synthStream(tageAgePeriod + 40000)
	for name, stream := range streams {
		t.Run(name, func(t *testing.T) {
			resetAt := len(stream) - min(len(stream)/2, 20000)
			got, ref := newTAGE(), newRefTAGE()
			check := func(i int) {
				t.Helper()
				if got.hist != ref.hist || got.updates != ref.updates || got.base != ref.base || got.banks != ref.banks {
					t.Fatalf("event %d: state diverged from the reference", i)
				}
				for b, bits := range tageHists {
					want := tageFolds{
						idx:  refFold(got.hist, bits, tageBankBits),
						tag8: refFold(got.hist, bits, tageTagBits),
						tag7: refFold(got.hist, bits, tageTagBits-1),
					}
					if got.folds[b] != want {
						t.Fatalf("event %d: bank %d folded history is stale", i, b)
					}
				}
			}
			for i, e := range stream {
				if g, r := got.Predict(e.pc), ref.Predict(e.pc); g != r {
					t.Fatalf("event %d pc=%#x: predicted %v, reference %v", i, e.pc, g, r)
				}
				got.Update(e.pc, e.taken)
				ref.Update(e.pc, e.taken)
				if i%4096 == 0 {
					check(i)
				}
				if i == resetAt {
					got.Reset()
					ref = newRefTAGE()
				}
			}
			check(len(stream))
		})
	}
}

// TestTAGEUpdateWithoutPredict checks that Update is right whether or not
// Predict looked the same pc up first: training without a prediction,
// predictions for other pcs in between, a second Update of the pc just
// predicted and updated, and a Reset between Predict and Update must all
// leave the reference state.
func TestTAGEUpdateWithoutPredict(t *testing.T) {
	stream := synthStream(20000)
	got, ref := newTAGE(), newRefTAGE()
	update := func(pc uint64, taken bool) {
		got.Update(pc, taken)
		ref.Update(pc, taken)
		if got.banks != ref.banks || got.base != ref.base || got.hist != ref.hist {
			t.Fatalf("Update(%#x, %v): state diverged from the reference", pc, taken)
		}
	}
	for i, e := range stream {
		switch i % 4 {
		case 1:
			got.Predict(e.pc)
		case 2:
			got.Predict(e.pc)
			got.Predict(e.pc + 4)
		case 3:
			got.Predict(e.pc)
			update(e.pc, e.taken)
		}
		if i == len(stream)/2 {
			got.Predict(e.pc)
			got.Reset()
			ref = newRefTAGE()
		}
		update(e.pc, e.taken)
	}
}
