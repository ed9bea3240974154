package bpred

// tage is a deterministic TAGE variant (Seznec/Michaud): a bimodal base
// table backed by tagged banks indexed with geometrically increasing
// global-history lengths. Prediction comes from the matching bank with
// the longest history (the provider); allocation on a mispredict claims
// an entry in the shortest longer-history bank whose usefulness counter
// has decayed to zero. Classic TAGE breaks allocation ties with a random
// draw; this variant always takes the shortest eligible bank, so the
// predictor stays a pure function of its input sequence — the property
// every model in this package must hold for results to be cacheable and
// distributable.

// tageHists are the per-bank history lengths. The longest (64) is what
// lets tage catch loop periods far beyond gshare's 12-bit reach.
var tageHists = [4]uint{8, 16, 32, 64}

const (
	tageBankBits = 10 // 1024 entries per tagged bank
	tageTagBits  = 8
	// tageAgePeriod is how many updates pass between usefulness-counter
	// decays (u >>= 1), so stale providers eventually become reclaimable.
	tageAgePeriod = 1 << 18
)

// tageEntry is one tagged-bank slot: an 8-bit tag, a 3-bit signed
// prediction counter in [-4,3] (>= 0 predicts taken), and a 2-bit
// usefulness counter guarding the slot against reallocation.
type tageEntry struct {
	tag uint8
	ctr int8
	u   uint8
}

type tage struct {
	base    [1 << tableBits]uint8
	banks   [len(tageHists)][1 << tageBankBits]tageEntry
	hist    uint64 // global history, newest outcome in bit 0
	updates uint64 // drives periodic usefulness decay

	// folds holds every bank's folded history, kept in step with hist as
	// it shifts, so a lookup never re-folds 64 bits of history per bank.
	folds [len(tageHists)]tageFolds

	// memo is the last lookup Predict made, for pc memoPC. Update reuses
	// it for the same pc; Update and Reset invalidate it, since only they
	// change the tables and the history a lookup reads.
	memo   tageLookup
	memoPC uint64
	memoOK bool
}

// tageFolds are one bank's history folds: the XOR-fold of its
// tageHists[b] newest outcomes into the index width, the tag width and
// one bit less than the tag width.
type tageFolds struct {
	idx, tag8, tag7 uint64
}

// tageLookup is the result of one table lookup: the provider (longest
// matching bank, -1 for none), its entry index, and the alternate
// prediction (next matching bank below it, or the base table).
type tageLookup struct {
	provider int
	idx      uint64
	altPred  bool
}

func newTAGE() *tage {
	t := &tage{}
	t.Reset()
	return t
}

func (t *tage) Reset() {
	for i := range t.base {
		t.base[i] = 1
	}
	for b := range t.banks {
		for i := range t.banks[b] {
			t.banks[b][i] = tageEntry{}
		}
	}
	t.hist = 0
	t.updates = 0
	t.folds = [len(tageHists)]tageFolds{}
	t.memoOK = false
}

func (t *tage) Name() string { return "tage" }

// tageFoldOut holds, per bank and fold, where a fold's rotation carries
// the history bit that leaves the bank's window: its length modulo the
// fold width.
var tageFoldOut = func() (o [len(tageHists)]tageFolds) {
	for b, n := range tageHists {
		o[b] = tageFolds{uint64(n % tageBankBits), uint64(n % tageTagBits), uint64(n % (tageTagBits - 1))}
	}
	return o
}()

// foldShift advances f, a width-bit XOR-fold of a history window, by one
// history shift: every history bit moves up one place, in, the newest
// outcome, enters at bit 0, and out, the bit that leaves the window, is
// cancelled at outPos, where the rotation carried it.
func foldShift(f uint64, width uint, in, out, outPos uint64) uint64 {
	f = (f<<1 | f>>(width-1)) & (1<<width - 1)
	return f ^ in ^ out<<outPos
}

func (t *tage) index(bank int, pc uint64) uint64 {
	return ((pc >> 2) ^ (pc >> (2 + tageBankBits)) ^ t.folds[bank].idx ^ uint64(bank)) & (1<<tageBankBits - 1)
}

func (t *tage) tag(bank int, pc uint64) uint8 {
	h := t.folds[bank].tag8 ^ t.folds[bank].tag7<<1
	return uint8((pc >> 2) ^ (pc >> (2 + tageTagBits)) ^ h ^ uint64(bank)<<3)
}

func (t *tage) lookup(pc uint64) tageLookup {
	l := tageLookup{provider: -1, altPred: ctr2Taken(t.base[(pc>>2)&(1<<tableBits-1)])}
	for b := len(t.banks) - 1; b >= 0; b-- {
		i := t.index(b, pc)
		if t.banks[b][i].tag != t.tag(b, pc) {
			continue
		}
		if l.provider < 0 {
			l.provider, l.idx = b, i
			continue
		}
		l.altPred = t.banks[b][i].ctr >= 0
		return l
	}
	return l
}

// Predict looks pc up and keeps the result for the Update that follows.
// The memo is invisible: it changes no prediction, only skips a repeat
// lookup.
func (t *tage) Predict(pc uint64) bool {
	l := t.lookup(pc)
	t.memo, t.memoPC, t.memoOK = l, pc, true
	if l.provider < 0 {
		return l.altPred // base prediction
	}
	return t.banks[l.provider][l.idx].ctr >= 0
}

func (t *tage) Update(pc uint64, taken bool) {
	l := t.memo
	if !t.memoOK || t.memoPC != pc {
		l = t.lookup(pc)
	}
	t.memoOK = false
	provider, idx, altPred := l.provider, l.idx, l.altPred
	pred := altPred
	if provider >= 0 {
		pred = t.banks[provider][idx].ctr >= 0
	}

	// Train the provider, and its usefulness when it disagreed with the
	// alternate (agreement teaches nothing about which to keep).
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
	// The base table always trains: it is the prediction of last resort
	// and the alternate for single-match lookups.
	bi := (pc >> 2) & (1<<tableBits - 1)
	t.base[bi] = ctr2Update(t.base[bi], taken)

	// Mispredict: allocate in the shortest longer-history bank whose slot
	// has no residual usefulness; failing that, age every candidate so a
	// persistent mispredict eventually claims one.
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

	var in uint64
	if taken {
		in = 1
	}
	for b, n := range tageHists {
		out := t.hist >> (n - 1) & 1
		f, pos := &t.folds[b], &tageFoldOut[b]
		f.idx = foldShift(f.idx, tageBankBits, in, out, pos.idx)
		f.tag8 = foldShift(f.tag8, tageTagBits, in, out, pos.tag8)
		f.tag7 = foldShift(f.tag7, tageTagBits-1, in, out, pos.tag7)
	}
	t.hist = t.hist<<1 | in
	t.updates++
	if t.updates%tageAgePeriod == 0 {
		for b := range t.banks {
			for i := range t.banks[b] {
				t.banks[b][i].u >>= 1
			}
		}
	}
}
