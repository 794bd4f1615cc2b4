// Package synth implements the FITS instruction-set synthesis stage
// (the paper's Section 3.3): given a profile it selects the Base
// Instruction Set (BIS), grows the Supplemental Instruction Set (SIS)
// until the ISA can express the whole application (Turing-completeness
// closure), fills the remaining opcode points with the
// Application-specific Instruction Set (AIS) by profile benefit —
// including two-operand variants and implied-base memory variants —
// assigns each point's immediate encoding (inline field vs an index
// into programmable value storage, the paper's utilization-based
// immediate dictionary), builds the register window, and searches the
// opcode field width k for the lowest-cost encoding.
package synth

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"powerfits/internal/isa"
	"powerfits/internal/isa/fits"
	"powerfits/internal/profile"
	"powerfits/internal/program"
	"powerfits/internal/translate"
)

// sortSigs orders signatures by rendered form with Key as tie-break —
// the deterministic order used everywhere in synthesis. Both strings
// are rendered once per element rather than once per comparison, which
// matters because the SIS closure re-sorts the point set every
// iteration of every candidate k.
func sortSigs(sigs []fits.Signature) {
	type keyed struct {
		sig fits.Signature
		str string
	}
	ks := make([]keyed, len(sigs))
	for i, s := range sigs {
		ks[i] = keyed{s, s.String()}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := strings.Compare(a.str, b.str); c != 0 {
			return c
		}
		// Rendered forms rarely collide; the full field dump breaks the
		// tie without being materialised on the common path.
		return strings.Compare(a.sig.Key(), b.sig.Key())
	})
	for i := range ks {
		sigs[i] = ks[i].sig
	}
}

// Options controls synthesis; use DefaultOptions as the base. The
// struct is also the options' wire form: serve's /synth requests and
// sweep's ablation axis marshal it as is, so each field's JSON key is
// declared here and nowhere else.
type Options struct {
	// ForceK pins the opcode width (0 = search MinK..MaxK).
	ForceK int `json:"force_k,omitempty"`
	// DictCap caps the total programmable immediate storage (value
	// table entries summed over all points).
	DictCap int `json:"dict_cap,omitempty"`
	// NoDict disables dictionary-mode points entirely (ablation).
	NoDict bool `json:"no_dict,omitempty"`
	// NoWindowRanking uses the identity register window r0..r15 instead
	// of profile ranking (ablation of the programmable register
	// decoder).
	NoWindowRanking bool `json:"no_window_ranking,omitempty"`
	// NoTwoOp disables two-operand point variants (ablation of the
	// paper's operand-mode heuristic).
	NoTwoOp bool `json:"no_two_op,omitempty"`
	// NoBasePoints disables implied-base memory variants (ablation).
	NoBasePoints bool `json:"no_base_points,omitempty"`
	// Trace, when non-nil, receives the synthesizer's decision log
	// (candidate rankings, SIS closure rounds, immediate-mode
	// assignments, per-width costs). A nil Trace adds no work and no
	// allocations to the synthesis path. It is a local observer and has
	// no wire form.
	Trace *Trace `json:"-"`

	// ProfileBudget bounds the dynamic profiling run that feeds
	// synthesis (instructions executed before the profiler gives up on a
	// runaway program). 0 means DefaultProfileBudget; negative values
	// are rejected. Sweeps can lower it to trade profile fidelity for
	// preparation speed.
	ProfileBudget int64 `json:"profile_budget,omitempty"`
}

// Key returns the canonical identity of the options: every field that
// can change the synthesized instruction set (or the profile feeding
// it) is folded in, in a fixed order, so the string is a stable memo
// and run-ID key for design-space sweeps and result caches. Trace is
// deliberately excluded — a decision log observes the synthesis, it
// never alters the outcome. TestOptionsKeyCoversAllFields enforces by
// reflection that a newly added field lands either here (and in With
// and the wire form) or on that explicit non-identity list, so a
// forgotten field fails the build's tests instead of silently serving
// stale memo entries.
func (o Options) Key() string {
	return fmt.Sprintf("synth/v1 k=%d dict=%d nodict=%t nowin=%t notwoop=%t nobase=%t budget=%d",
		o.ForceK, o.DictCap, o.NoDict, o.NoWindowRanking, o.NoTwoOp, o.NoBasePoints,
		cmp.Or(o.ProfileBudget, DefaultProfileBudget))
}

// With overlays v on o: each non-zero number in v replaces o's, and
// each switch set in v is set in the result. o's Trace is kept (v's is
// ignored), so an overlay never attaches an observer. An ablation, a
// request's knobs or a sweep point is applied to a base this way.
func (o Options) With(v Options) Options {
	o.ForceK = cmp.Or(v.ForceK, o.ForceK)
	o.DictCap = cmp.Or(v.DictCap, o.DictCap)
	o.ProfileBudget = cmp.Or(v.ProfileBudget, o.ProfileBudget)
	o.NoDict = o.NoDict || v.NoDict
	o.NoWindowRanking = o.NoWindowRanking || v.NoWindowRanking
	o.NoTwoOp = o.NoTwoOp || v.NoTwoOp
	o.NoBasePoints = o.NoBasePoints || v.NoBasePoints
	return o
}

// Validate checks the options' bounds: ForceK is 0 (search) or an
// opcode width in [fits.MinK, fits.MaxK], and DictCap and ProfileBudget
// are not negative. Synthesize and sim.PrepareWith call it before any
// work starts.
func (o Options) Validate() error {
	switch {
	case o.ForceK != 0 && (o.ForceK < fits.MinK || o.ForceK > fits.MaxK):
		return fmt.Errorf("synth: force_k %d outside [%d,%d] (0 = search)", o.ForceK, fits.MinK, fits.MaxK)
	case o.DictCap < 0:
		return fmt.Errorf("synth: dict_cap must be ≥ 0 (got %d)", o.DictCap)
	case o.ProfileBudget < 0:
		return fmt.Errorf("synth: profile_budget must be ≥ 0 (got %d)", o.ProfileBudget)
	}
	return nil
}

// DefaultProfileBudget is the profiling instruction budget used when
// Options.ProfileBudget is zero — generous enough that every shipped
// kernel at every scale runs to completion.
const DefaultProfileBudget = int64(2e9)

// DefaultOptions returns the configuration used by the experiments.
func DefaultOptions() Options {
	return Options{DictCap: 256}
}

// EffectiveProfileBudget resolves the profiling instruction budget of
// valid options (see Validate), applying the default to a zero budget.
func (o Options) EffectiveProfileBudget() uint64 {
	return uint64(cmp.Or(o.ProfileBudget, DefaultProfileBudget))
}

// Synthesis is the result of instruction-set synthesis for one program.
type Synthesis struct {
	Spec *fits.Spec
	K    int

	// BIS, SIS and AIS partition the signature points by provenance.
	BIS []fits.Signature
	SIS []fits.Signature
	AIS []fits.Signature

	// DictEntries is the total programmable value storage used.
	DictEntries int

	// Cost is the weighted halfword cost of the chosen encoding
	// (dynamic fetch halfwords plus static code halfwords).
	Cost uint64

	// CandidateCost records the cost of every feasible opcode width
	// tried; CandidateErr the reason an opcode width was infeasible.
	CandidateCost map[int]uint64
	CandidateErr  map[int]string

	// translation is the translation of the profiled program onto Spec
	// that costed the chosen width (Translation), and translateTime the
	// wall-clock time it took (TranslateTime).
	translation   *translate.Result
	translateTime time.Duration
}

// Translation returns the translation of the profiled program onto
// Spec that synthesis built to cost the chosen width. Callers share it
// read-only instead of translating the spec again.
func (s *Synthesis) Translation() *translate.Result { return s.translation }

// TranslateTime returns how long building Translation took, a part of
// the Synthesize call that returned s.
func (s *Synthesis) TranslateTime() time.Duration { return s.translateTime }

// BaseInstructionSet returns the fixed BIS: the signatures "found
// across all applications" (paper Section 3.3) that every synthesized
// ISA carries, plus the LDC anchor that (with EXT) makes any constant
// expressible.
func BaseInstructionSet() []fits.Signature {
	alu := func(op isa.Op, imm bool) fits.Signature {
		return fits.Signature{Op: op, Cond: isa.AL, OperandImm: imm}
	}
	mem := func(op isa.Op) fits.Signature {
		return fits.Signature{Op: op, Cond: isa.AL, Mode: isa.AMOffImm, OperandImm: true}
	}
	br := func(c isa.Cond) fits.Signature {
		return fits.Signature{Op: isa.BC, Cond: c}
	}
	return []fits.Signature{
		alu(isa.MOV, false), alu(isa.MOV, true),
		alu(isa.ADD, false), alu(isa.ADD, true),
		alu(isa.SUB, false), alu(isa.SUB, true),
		{Op: isa.CMP, Cond: isa.AL}, {Op: isa.CMP, Cond: isa.AL, OperandImm: true},
		{Op: isa.B, Cond: isa.AL}, br(isa.EQ), br(isa.NE),
		{Op: isa.BL, Cond: isa.AL}, {Op: isa.BX, Cond: isa.AL},
		mem(isa.LDR), mem(isa.STR), mem(isa.LDRB), mem(isa.STRB),
		{Op: isa.PUSH, Cond: isa.AL}, {Op: isa.POP, Cond: isa.AL},
		{Op: isa.SWI, Cond: isa.AL, OperandImm: true},
		fits.LdcSig(),
	}
}

// Synthesize runs the full synthesis flow over a collected profile.
func Synthesize(prof *profile.Profile, opts Options) (*Synthesis, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	lo, hi := fits.MinK, fits.MaxK
	if opts.ForceK != 0 {
		lo, hi = opts.ForceK, opts.ForceK
	}
	if opts.Trace != nil {
		opts.Trace.Program = prof.Prog.Name
		var tot uint64
		for i := range prof.Prog.Instrs {
			if prof.Prog.Instrs[i].Op == isa.NOP {
				continue
			}
			tot += prof.Dyn[i] + 1
		}
		opts.Trace.TotalWeight = tot
	}
	out := &Synthesis{
		CandidateCost: make(map[int]uint64),
		CandidateErr:  make(map[int]string),
	}
	// The candidate statistics depend only on the program and profile,
	// not on the opcode width: collect them once and share the map
	// (read-only downstream) across every k the search evaluates.
	stats := collectStats(prof.Prog, prof.Dyn, opts)
	ranked := rankedCandidates(stats)
	var best *Synthesis
	for k := lo; k <= hi; k++ {
		cand, err := synthesizeK(prof, k, opts, stats, ranked)
		if err != nil {
			out.CandidateErr[k] = err.Error()
			if opts.Trace != nil {
				opts.Trace.KFor(k).Err = err.Error()
			}
			continue
		}
		out.CandidateCost[k] = cand.Cost
		if best == nil || cand.Cost < best.Cost {
			best = cand
		}
	}
	if best == nil {
		return nil, fmt.Errorf("synth: %s: no feasible opcode width in [%d,%d]: %v",
			prof.Prog.Name, lo, hi, out.CandidateErr)
	}
	best.CandidateCost = out.CandidateCost
	best.CandidateErr = out.CandidateErr
	if opts.Trace != nil {
		opts.Trace.ChosenK = best.K
	}
	return best, nil
}

// sigStats aggregates, per candidate signature, the weight of the
// instruction instances it could encode and the histogram of their
// value-field contents.
type sigStats struct {
	weight uint64
	values map[int32]uint64
}

// collectStats walks the program once and attributes every instruction
// to each point variant that could encode it (exact, two-operand,
// implied-base), per the encoder's candidate rules.
func collectStats(p *program.Program, dyn []uint64, opts Options) map[fits.Signature]*sigStats {
	stats := make(map[fits.Signature]*sigStats)
	note := func(sig fits.Signature, in *isa.Instr, w uint64) {
		st := stats[sig]
		if st == nil {
			st = &sigStats{values: make(map[int32]uint64)}
			stats[sig] = st
		}
		st.weight += w
		if fits.HasValueField(fits.FormatOf(sig)) {
			if v, err := fits.ValueOf(in, sig); err == nil {
				st.values[int32(v)] += w
			}
		}
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op == isa.NOP {
			continue
		}
		w := dyn[i] + 1
		var sig fits.Signature
		if in.Op == isa.LDC {
			sig = fits.LdcSig()
		} else {
			sig = fits.SigOf(in)
		}
		note(sig, in, w)
		if !opts.NoTwoOp && sig.CanTwoOp() {
			if (sig.Op == isa.MUL && in.Rd == in.Rm) || (sig.Op != isa.MUL && in.Rd == in.Rn) {
				note(sig.AsTwoOp(), in, w)
			}
		}
		if !opts.NoBasePoints && sig.CanBase() {
			note(sig.AsBase(in.Rn), in, w)
		}
	}
	return stats
}

// prov tags each selected signature with how it earned its opcode
// point (the paper's BIS/SIS/AIS partition).
type prov int

const (
	provBIS prov = iota
	provSIS
	provAIS
)

// synthesizeK builds and evaluates the spec for one opcode width.
// stats and ranked are shared across the k search; synthesizeK only
// reads them.
func synthesizeK(prof *profile.Profile, k int, opts Options, stats map[fits.Signature]*sigStats, ranked []fits.Signature) (*Synthesis, error) {
	p := prof.Prog
	capacity := 1 << k
	var kt *KTrace
	var sisRound map[fits.Signature]int
	if opts.Trace != nil {
		kt = opts.Trace.KFor(k)
		sisRound = make(map[fits.Signature]int)
	}

	// Register window for narrow fields.
	var window []isa.Reg
	if 16-k-8 < 4 {
		if opts.NoWindowRanking {
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				window = append(window, r)
			}
		} else {
			window = prof.RankedRegs()
		}
	}
	if kt != nil {
		for _, r := range window {
			kt.Window = append(kt.Window, r.String())
		}
	}

	set := make(map[fits.Signature]prov)
	for _, s := range BaseInstructionSet() {
		set[s] = provBIS
	}

	// dictKT is nil during the closure loop's interim specs and set to
	// kt just before the final buildSpec, so the trace records only the
	// immediate-mode decisions that survive into the chosen spec.
	var dictKT *KTrace
	buildSpec := func() (*fits.Spec, error) {
		sigs := make([]fits.Signature, 0, len(set))
		for s := range set {
			sigs = append(sigs, s)
		}
		sortSigs(sigs)
		points := make([]fits.Point, 0, len(sigs)+1)
		points = append(points, fits.Point{Kind: fits.PointExt})
		for _, s := range sigs {
			points = append(points, fits.Point{Kind: fits.PointSig, Sig: s})
		}
		if len(points) > capacity {
			return nil, fmt.Errorf("synth: %d opcode points exceed 2^%d", len(points), k)
		}
		assignModes(points, stats, k, opts, dictKT)
		return fits.NewSpec(p.Name, k, points, window)
	}

	// SIS closure: add every signature the translator reports missing
	// until the whole program lowers.
	var lc translate.Counter
	for iter := 0; ; iter++ {
		if iter > 4*capacity {
			return nil, fmt.Errorf("synth: SIS closure did not converge")
		}
		spec, err := buildSpec()
		if err != nil {
			return nil, err
		}
		missing := map[fits.Signature]bool{}
		for i := range p.Instrs {
			if _, err := lc.Count(&p.Instrs[i], spec); err != nil {
				var np *fits.NoPointError
				if errors.As(err, &np) {
					missing[np.Sig] = true
					continue
				}
				return nil, fmt.Errorf("synth: instr %d (%s) unlowerable: %w", i, &p.Instrs[i], err)
			}
		}
		if len(missing) == 0 {
			break
		}
		if kt != nil {
			kt.noteClosure(iter+1, missing)
		}
		for s := range missing {
			if _, ok := set[s]; !ok {
				set[s] = provSIS
				if sisRound != nil {
					sisRound[s] = iter + 1
				}
			}
		}
	}

	// AIS: fill the remaining opcode points by profile benefit.
	budget := capacity - 1 - len(set)
	if budget < 0 {
		return nil, fmt.Errorf("synth: BIS+SIS of %d signatures exceed 2^%d budget", len(set), k)
	}
	for _, cand := range ranked {
		if budget == 0 {
			break
		}
		if _, ok := set[cand]; ok {
			continue
		}
		set[cand] = provAIS
		budget--
	}
	if kt != nil {
		kt.noteCandidates(ranked, stats, set, sisRound)
	}

	dictKT = kt
	spec, err := buildSpec()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := translate.Translate(p, spec)
	if err != nil {
		return nil, err
	}

	syn := &Synthesis{Spec: spec, K: k, Cost: cost(res, prof.Dyn), DictEntries: spec.DictEntries(),
		translation: res, translateTime: time.Since(t0)}
	if kt != nil {
		kt.Cost = syn.Cost
		kt.Points = spec.UsedPoints()
		kt.DictEntries = syn.DictEntries
	}
	for s, pv := range set {
		switch pv {
		case provBIS:
			syn.BIS = append(syn.BIS, s)
		case provSIS:
			syn.SIS = append(syn.SIS, s)
		default:
			syn.AIS = append(syn.AIS, s)
		}
	}
	for _, lst := range []*[]fits.Signature{&syn.BIS, &syn.SIS, &syn.AIS} {
		sortSigs(*lst)
	}
	return syn, nil
}

// rankedCandidates orders candidate signatures by weight, descending.
func rankedCandidates(stats map[fits.Signature]*sigStats) []fits.Signature {
	type scored struct {
		sig      fits.Signature
		w        uint64
		str, key string
	}
	cands := make([]scored, 0, len(stats))
	for sig, st := range stats {
		cands = append(cands, scored{sig, st.weight, sig.String(), sig.Key()})
	}
	slices.SortFunc(cands, func(a, b scored) int {
		if a.w != b.w {
			if a.w > b.w {
				return -1
			}
			return 1
		}
		if c := strings.Compare(a.str, b.str); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	out := make([]fits.Signature, len(cands))
	for i, c := range cands {
		out[i] = c.sig
	}
	return out
}

// assignModes chooses inline vs dictionary encoding for every value
// field and fills the per-point value tables within the global storage
// cap, by descending benefit — the paper's utilization-based immediate
// synthesis. A non-nil kt receives one DictDecision per profitable
// plan.
func assignModes(points []fits.Point, stats map[fits.Signature]*sigStats, k int, opts Options, kt *KTrace) {
	if opts.NoDict {
		return
	}
	pb := 16 - k
	extsInline := func(v uint32, bits int) uint64 {
		n := uint64(0)
		for rest := v >> bits; rest != 0; rest >>= pb {
			n++
		}
		return n
	}
	// A dictionary miss is carried inline with at least one marker EXT.
	extsMiss := func(v uint32, bits int) uint64 {
		if n := extsInline(v, bits); n > 0 {
			return n
		}
		return 1
	}

	type plan struct {
		idx     int
		values  []int32
		benefit uint64
	}
	var plans []plan
	for i := range points {
		pt := &points[i]
		if pt.Kind != fits.PointSig {
			continue
		}
		f := fits.FormatOf(pt.Sig)
		if !fits.HasValueField(f) {
			continue
		}
		st := stats[pt.Sig]
		if st == nil || len(st.values) == 0 {
			continue
		}
		bits := fits.FieldBits(f, k)
		// Rank values by weight (value ascending as tie-break).
		vals := make([]int32, 0, len(st.values))
		for v := range st.values {
			vals = append(vals, v)
		}
		slices.SortFunc(vals, func(a, b int32) int {
			wa, wb := st.values[a], st.values[b]
			if wa != wb {
				if wa > wb {
					return -1
				}
				return 1
			}
			if a != b {
				if a < b {
					return -1
				}
				return 1
			}
			return 0
		})
		max := 1 << bits
		if len(vals) > max {
			vals = vals[:max]
		}
		inTable := make(map[int32]bool, len(vals))
		for _, v := range vals {
			inTable[v] = true
		}
		var costInline, costDict uint64
		for v, w := range st.values {
			costInline += w * extsInline(uint32(v), bits)
			if !inTable[v] {
				costDict += w * extsMiss(uint32(v), bits)
			}
		}
		if costDict < costInline {
			plans = append(plans, plan{idx: i, values: vals, benefit: costInline - costDict})
		}
	}
	slices.SortFunc(plans, func(a, b plan) int {
		if a.benefit != b.benefit {
			if a.benefit > b.benefit {
				return -1
			}
			return 1
		}
		return a.idx - b.idx
	})
	remaining := opts.DictCap
	for _, pl := range plans {
		chosen := len(pl.values) <= remaining
		if kt != nil {
			kt.noteDict(points[pl.idx].Sig, len(pl.values), pl.benefit, chosen)
		}
		if !chosen {
			continue
		}
		points[pl.idx].ImmDict = true
		points[pl.idx].Values = pl.values
		remaining -= len(pl.values)
	}
}

// cost is the synthesis objective: dynamically weighted fetch halfwords
// plus static code halfwords (lower is better for both power and code
// size).
func cost(res *translate.Result, dyn []uint64) uint64 {
	var total uint64
	for i := 0; i < len(res.OrigStart)-1; i++ {
		var hw uint64
		for u := res.OrigStart[i]; u < res.OrigStart[i+1]; u++ {
			hw += uint64(res.Image.InstrSize[u]) / 2
		}
		total += hw * (dyn[i] + 1)
	}
	return total
}
