package analysis

import (
	"repro/internal/ir"
)

// Version identifies the triage rule set. It participates in pipeline
// cache keys so persisted campaign artifacts invalidate whenever the
// analysis changes; bump it with any rule change that can alter a
// classification.
const Version = "sdc-triage/v3"

// FaultClass abstracts the properties of a fault model that triage
// soundness depends on, without this package importing the injector.
// A proof is consulted only for classes it is valid for.
type FaultClass struct {
	// ValueLocal: the fault perturbs only the result value of a single
	// dynamic instruction (any combination of bits, by XOR or stuck-at).
	// All register-level models are value-local; a model corrupting
	// memory or control state directly would not be.
	ValueLocal bool
	// BitsBounded: the set of bits the fault can touch is fully
	// described by the injector's (bit, mask) site description, so
	// bit-granular proofs (ProofMaskedBits) may be applied. Models that
	// re-perturb or spread beyond the declared mask must leave this
	// false, restricting triage to whole-value proofs.
	BitsBounded bool
	// AlwaysFlips: every effect the model injects CHANGES the target
	// value (an XOR with a nonzero narrowed mask). Detection proofs
	// (ProofDupDetected) require it: a stuck-at perturbation may leave
	// the value unchanged, making "guaranteed detected" unsound —
	// the unchanged execution is benign, not detected.
	AlwaysFlips bool
}

// DefaultFaultClass describes the paper's single-bit-flip model (and
// every XOR-mask model currently registered by the injector).
var DefaultFaultClass = FaultClass{ValueLocal: true, BitsBounded: true, AlwaysFlips: true}

// Proof tags the fact backing a verdict. Tags are machine-checkable:
// each names the analysis fact that justifies the classification, and
// the differential soundness tests re-validate them by injection.
type Proof uint8

const (
	// ProofNone marks an unknown site (or a trivially-benign one whose
	// narrowed effect mask is empty).
	ProofNone Proof = iota
	// ProofDeadValue: no bit of the result can reach program output,
	// control flow, or a trap condition (demanded mask is zero). The
	// dominant instance is dead loop-carried phi cycles that classic
	// DCE cannot remove because every member has a use.
	ProofDeadValue
	// ProofMaskedBits: a proper subset of result bits is demanded; the
	// masked bits are absorbed by constant masks, shifts, truncating
	// consumers, or the interpreter's shift-amount masking.
	ProofMaskedBits
	// ProofDeadStore: the value is demanded only by stores into memory
	// objects that are never read, flagged dead by the memory pass.
	ProofDeadStore
	// ProofStoreShadowed: the value is demanded only by stores that are
	// provably overwritten before any load can observe them (memory-SSA
	// same-block store chains over non-escaping allocas).
	ProofStoreShadowed
	// ProofRangeMasked: the flipped bit is demanded, but every
	// demanding use is a comparison or division against a constant
	// whose result the value-range analysis proves invariant under the
	// flip. Valid only for effects perturbing exactly one bit.
	ProofRangeMasked
	// ProofDupDetected: every value-changing perturbation trips an
	// armed detector before any other observable (the duplication
	// check's eq+detect pair, or an immediately-following detect). The
	// site is counted Detected without execution. Valid only for
	// always-flipping (XOR) fault classes.
	ProofDupDetected
	// ProofUnguarded: the site has no duplicate in a module whose every
	// detector is a duplication check, so no detector can catch any
	// perturbation of it (detectproof.go). It rules out only the
	// Detected outcome, so it never backs a Verdict: phase 2 of a
	// true-coverage measurement, which counts only Detected replays,
	// skips such replays as not mitigated. Valid for every value-local
	// fault class.
	ProofUnguarded
)

// ValidFor reports whether a verdict carrying proof p is sound under
// fault class cl. Whole-value proofs (DeadValue, DeadStore,
// StoreShadowed) hold for any value-local model: no matter how the
// bits are perturbed, the result never reaches output, control flow,
// or a trap. Bit-granular proofs (MaskedBits, RangeMasked)
// additionally require the model's touched bits to be bounded by the
// declared site mask; detection proofs require every effect to change
// the value.
func (p Proof) ValidFor(cl FaultClass) bool {
	if !cl.ValueLocal {
		return false
	}
	switch p {
	case ProofDeadValue, ProofDeadStore, ProofStoreShadowed, ProofUnguarded:
		return true
	case ProofMaskedBits, ProofRangeMasked:
		return cl.BitsBounded
	case ProofDupDetected:
		return cl.AlwaysFlips
	default:
		return false
	}
}

// String returns the tag name used in reports and metrics.
func (p Proof) String() string {
	switch p {
	case ProofDeadValue:
		return "dead-value"
	case ProofMaskedBits:
		return "masked-bits"
	case ProofDeadStore:
		return "dead-store"
	case ProofStoreShadowed:
		return "store-shadowed"
	case ProofRangeMasked:
		return "range-masked"
	case ProofDupDetected:
		return "dup-detected"
	case ProofUnguarded:
		return "unguarded"
	default:
		return "none"
	}
}

// Verdict classifies one fault site.
type Verdict uint8

const (
	// VerdictUnknown: the analysis cannot prove the site's outcome; the
	// campaign must execute it.
	VerdictUnknown Verdict = iota
	// VerdictProvablyMasked: the fault can never change the program's
	// outcome; the campaign may count it benign unrun.
	VerdictProvablyMasked
	// VerdictProvablyDetected: the fault always trips an armed detector
	// before any other observable; the campaign may count it detected
	// unrun.
	VerdictProvablyDetected
)

// Triage is the per-module fault-site classification. All methods are
// safe for concurrent use after construction (the struct is immutable).
type Triage struct {
	mod   *ir.Module
	facts *Facts

	// demand[id] is the demanded-bit mask of instruction id's result
	// (within its type width); masked[id] the complementary provably
	// masked bits; rangeMasked[id] the demanded bits additionally
	// absorbed under single-bit flips. proof[id] tags why masked[id]
	// is nonzero.
	demand      []uint64
	masked      []uint64
	rangeMasked []uint64
	proof       []Proof

	// detectAll/detectNext/unguarded are the detection facts
	// (detectproof.go).
	detectAll  []bool
	detectNext []bool
	unguarded  []bool

	// sound is false when the module is not in single-assignment form;
	// every site is then VerdictUnknown.
	sound bool
}

// NewTriage analyzes m and classifies every injection site. Modules
// not in single-assignment register form yield an inert triage that
// proves nothing. All underlying analyses come from the memoized
// FactsFor bundle, so repeated triage queries (and the -analyze
// report) never rebuild CFGs or dominators.
func NewTriage(m *ir.Module) *Triage {
	fa := FactsFor(m)
	t := &Triage{
		mod:    m,
		facts:  fa,
		demand: make([]uint64, m.NumInstrs()),
		masked: make([]uint64, m.NumInstrs()),
		proof:  make([]Proof, m.NumInstrs()),
		sound:  fa.SingleAssignment,
	}
	if !t.sound {
		for id := range t.demand {
			t.demand[id] = fullDemand
		}
		return t
	}
	t.rangeMasked = fa.RangeMasked
	t.detectAll = fa.Detect.all
	t.detectNext = fa.Detect.next
	t.unguarded = fa.Detect.unguarded

	for fi, f := range m.Funcs {
		du := fa.DefUses[fi]
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !in.IsInjectable() {
					t.demand[in.ID] = fullDemand
					continue
				}
				width := widthMask(in.Type)
				d := fa.Dem.Regs[fi][in.Dst] & width
				t.demand[in.ID] = d
				t.masked[in.ID] = width &^ d
				switch {
				case t.masked[in.ID] == 0:
					t.proof[in.ID] = ProofNone
				case d == 0 && feedsStore(du, in, fa.DS.Dead):
					t.proof[in.ID] = ProofDeadStore
				case d == 0 && feedsStore(du, in, fa.DS.Shadowed):
					t.proof[in.ID] = ProofStoreShadowed
				case d == 0:
					t.proof[in.ID] = ProofDeadValue
				default:
					t.proof[in.ID] = ProofMaskedBits
				}
			}
		}
	}
	return t
}

// feedsStore reports whether some use of in's result is a store in the
// flagged set (used to attribute the proof tag).
func feedsStore(du *DefUse, in *ir.Instr, flagged map[int]bool) bool {
	for _, u := range du.Uses[in.Dst] {
		if u.Op == ir.OpStore && flagged[u.ID] {
			return true
		}
	}
	return false
}

// Facts returns the underlying memoized analysis bundle.
func (t *Triage) Facts() *Facts { return t.facts }

// DemandedBits returns the demanded-bit mask of instruction id's result.
func (t *Triage) DemandedBits(id int) uint64 { return t.demand[id] }

// MaskedBits returns the provably masked bits of instruction id's
// result (zero for unknown or non-injectable sites). Range-absorbed
// bits are not included — they are masked only for single-bit effects;
// see RangeMaskedBits.
func (t *Triage) MaskedBits(id int) uint64 { return t.masked[id] }

// RangeMaskedBits returns the demanded bits of instruction id's result
// that are additionally absorbed under single-bit flips (zero when the
// module is not SSA).
func (t *Triage) RangeMaskedBits(id int) uint64 {
	if t.rangeMasked == nil {
		return 0
	}
	return t.rangeMasked[id]
}

// Site classifies the single-bit fault site (id, bit) under the
// default (single-bit-flip) fault class. bit follows the injector's
// convention and is reduced modulo the value width.
func (t *Triage) Site(id int, bit uint) (Verdict, Proof) {
	return t.ClassifyFor(DefaultFaultClass, id, bit, 0)
}

// Masked reports whether the fault described by (bit, mask) — the
// injector's single-bit Bit or, when mask is nonzero, a multi-bit XOR
// mask — is provably benign at instruction id. Masked assumes the
// default (single-bit-flip) fault class; campaigns running other
// models use MaskedFor or ClassifyFor.
func (t *Triage) Masked(id int, bit uint, mask uint64) bool {
	return t.MaskedFor(DefaultFaultClass, id, bit, mask)
}

// MaskedFor is Masked under an explicit fault class: true only when
// the verdict is VerdictProvablyMasked with a proof valid for cl.
func (t *Triage) MaskedFor(cl FaultClass, id int, bit uint, mask uint64) bool {
	v, _ := t.ClassifyFor(cl, id, bit, mask)
	return v == VerdictProvablyMasked
}

// ClassifyFor classifies the fault site (id, bit/mask) under fault
// class cl, returning the verdict and the proof backing it. The mask
// is narrowed exactly as the interpreter narrows it before applying
// the effect (I1 results keep only bit 0). Stuck-at models narrow to
// their declared mask exactly like XOR models, so the same subset
// check applies; classes without bounded bits fall back to whole-value
// proofs only.
func (t *Triage) ClassifyFor(cl FaultClass, id int, bit uint, mask uint64) (Verdict, Proof) {
	if !t.sound || !cl.ValueLocal {
		return VerdictUnknown, ProofNone
	}
	in := t.mod.Instrs[id]
	if !in.IsInjectable() {
		return VerdictUnknown, ProofNone
	}
	if !cl.BitsBounded {
		// The site description cannot be trusted bit-by-bit; only a
		// whole-value proof (every perturbation of a dead value is
		// benign) may prune, and only when valid for cl.
		if t.demand[id] == 0 && t.proof[id].ValidFor(cl) {
			return VerdictProvablyMasked, t.proof[id]
		}
		if cl.AlwaysFlips && t.detectAll[id] {
			return VerdictProvablyDetected, ProofDupDetected
		}
		return VerdictUnknown, ProofNone
	}
	var hit uint64
	single := true
	if mask != 0 {
		if in.Type == ir.I1 {
			mask &= 1
		}
		if mask == 0 {
			// Narrowing zeroed the mask: the injector perturbs nothing
			// (XOR and stuck-at alike), trivially benign for any model.
			return VerdictProvablyMasked, ProofNone
		}
		hit = mask
		single = mask&(mask-1) == 0
	} else {
		hit = 1 << (bit % in.Type.Bits())
	}
	eff := t.masked[id]
	if single {
		eff |= t.rangeMasked[id]
	}
	if hit&^eff == 0 {
		// Every hit bit is provably masked. Attribute the proof: if any
		// hit bit needs the range fact, the verdict rests on it (and on
		// the demand proof for the remaining bits, when any).
		if rangeBits := hit & t.rangeMasked[id] &^ t.masked[id]; rangeBits != 0 {
			demandOK := hit&t.masked[id] == 0 || t.proof[id].ValidFor(cl)
			if ProofRangeMasked.ValidFor(cl) && demandOK {
				return VerdictProvablyMasked, ProofRangeMasked
			}
		} else if t.proof[id].ValidFor(cl) {
			return VerdictProvablyMasked, t.proof[id]
		}
	}
	if cl.AlwaysFlips {
		if t.detectAll[id] {
			return VerdictProvablyDetected, ProofDupDetected
		}
		if t.detectNext[id] && hit&1 != 0 && hit&^widthMask(in.Type) == 0 {
			return VerdictProvablyDetected, ProofDupDetected
		}
	}
	return VerdictUnknown, ProofNone
}

// Unguarded reports whether no detector of the module can catch any
// fault of class cl at instruction id (ProofUnguarded). False whenever
// the module is not in single-assignment form or has protection code
// other than duplication triples.
func (t *Triage) Unguarded(cl FaultClass, id int) bool {
	return t.unguarded != nil && ProofUnguarded.ValidFor(cl) && t.unguarded[id]
}

type triageKey struct{}

// TriageFor returns the memoized triage of m's current finalized
// snapshot, computing it on first use. Modules are analyzed at most
// once per Finalize generation (the Facts bundle underneath is
// memoized the same way).
func TriageFor(m *ir.Module) *Triage {
	return ir.Derived(m, triageKey{}, NewTriage)
}
