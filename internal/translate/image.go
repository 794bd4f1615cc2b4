package translate

import (
	"encoding/binary"
	"fmt"

	"powerfits/internal/isa"
	"powerfits/internal/isa/fits"
	"powerfits/internal/program"
)

// Result is a completed ARM→FITS translation.
type Result struct {
	// Spec is the synthesized ISA the translation targets.
	Spec *fits.Spec
	// Lowered is the FITS-side program (same data segment and symbols,
	// rewritten instruction stream).
	Lowered *program.Program
	// Image is the encoded 16-bit text image of Lowered.
	Image *program.Image
	// OrigStart[i] is the first lowered-instruction index of original
	// instruction i; OrigStart[len] == len(Lowered.Instrs).
	OrigStart []int
	// OneToOne[i] reports whether original instruction i mapped to
	// exactly one 16-bit FITS instruction (no expansion, no EXT).
	OneToOne []bool
}

// StaticMappingRate is the fraction of original instructions with a
// one-to-one translation (the paper's Figure 3 metric).
func (r *Result) StaticMappingRate() float64 {
	n := len(r.OneToOne)
	if n == 0 {
		return 0
	}
	c := 0
	for _, ok := range r.OneToOne {
		if ok {
			c++
		}
	}
	return float64(c) / float64(n)
}

// DynamicMappingRate weights the mapping by per-instruction execution
// counts (the paper's Figure 4 metric).
func (r *Result) DynamicMappingRate(dyn []uint64) float64 {
	var tot, one uint64
	for i, ok := range r.OneToOne {
		tot += dyn[i]
		if ok {
			one += dyn[i]
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(one) / float64(tot)
}

// Translate lowers, lays out and encodes a program against a spec.
func Translate(p *program.Program, spec *fits.Spec) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Instrs)
	origStart := make([]int, n+1)
	var units []lowered
	origOf := make([]int, 0, n)
	for i := range p.Instrs {
		origStart[i] = len(units)
		var err error
		units, err = lowerOne(units, &p.Instrs[i], spec, 0)
		if err != nil {
			return nil, fmt.Errorf("translate: %s instr %d (%s): %w", p.Name, i, &p.Instrs[i], err)
		}
		if len(units) == origStart[i] {
			return nil, fmt.Errorf("translate: %s instr %d lowered to nothing", p.Name, i)
		}
		for u := origStart[i]; u < len(units); u++ {
			origOf = append(origOf, i)
		}
	}
	origStart[n] = len(units)

	// Build the lowered program with remapped branch targets.
	lp := &program.Program{
		Name:     p.Name + ".fits",
		Instrs:   make([]isa.Instr, len(units)),
		Funcs:    make([]program.Func, len(p.Funcs)),
		Data:     p.Data,
		TextBase: p.TextBase,
		DataBase: p.DataBase,
		Symbols:  p.Symbols,
		Entry:    origStart[p.Entry],
	}
	for u, lu := range units {
		in := lu.in
		if in.Op.IsBranch() && in.Op != isa.BX {
			switch {
			case lu.skipToEnd:
				in.TargetIdx = origStart[origOf[u]+1]
			case in.TargetIdx >= 0:
				in.TargetIdx = origStart[in.TargetIdx]
			default:
				return nil, fmt.Errorf("translate: unresolved branch in lowering of instr %d", origOf[u])
			}
			in.Target = ""
		}
		lp.Instrs[u] = in
	}
	for fi, f := range p.Funcs {
		lp.Funcs[fi] = program.Func{Name: f.Name, Start: origStart[f.Start], End: origStart[f.End]}
	}
	if err := lp.Validate(); err != nil {
		return nil, fmt.Errorf("translate: lowered program invalid: %w", err)
	}

	im, words, err := layout(lp, spec)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Spec:      spec,
		Lowered:   lp,
		Image:     im,
		OrigStart: origStart,
		OneToOne:  make([]bool, n),
	}
	for i := 0; i < n; i++ {
		res.OneToOne[i] = origStart[i+1]-origStart[i] == 1 && words[origStart[i]] == 1
	}
	return res, nil
}

// layout performs the fix-point address assignment and final encoding.
// Unit sizes grow monotonically across iterations, guaranteeing
// termination.
func layout(lp *program.Program, spec *fits.Spec) (*program.Image, []int, error) {
	n := len(lp.Instrs)
	words := make([]int, n)
	for i := range words {
		words[i] = 1
	}
	addr := make([]uint32, n+1)

	assign := func() {
		a := lp.TextBase
		for i := 0; i < n; i++ {
			addr[i] = a
			a += uint32(2 * words[i])
		}
		addr[n] = a
	}

	for iter := 0; ; iter++ {
		if iter > 8*fits.MaxExts+8 {
			return nil, nil, fmt.Errorf("translate: layout did not converge")
		}
		assign()
		changed := false
		for i := 0; i < n; i++ {
			in := &lp.Instrs[i]
			var target uint32
			if in.Op.IsBranch() && in.Op != isa.BX {
				target = addr[in.TargetIdx]
			}
			_, n, err := spec.Encode(in, addr[i], target, 0)
			if err != nil {
				return nil, nil, fmt.Errorf("translate: encode instr %d (%s): %w", i, in, err)
			}
			if n > words[i] {
				words[i] = n
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	assign()
	im := &program.Image{
		TextBase:  lp.TextBase,
		Text:      make([]byte, addr[n]-lp.TextBase),
		InstrAddr: make([]uint32, n),
		InstrSize: make([]uint8, n),
	}
	for i := 0; i < n; i++ {
		in := &lp.Instrs[i]
		var target uint32
		if in.Op.IsBranch() && in.Op != isa.BX {
			target = addr[in.TargetIdx]
		}
		ws, n, err := spec.Encode(in, addr[i], target, words[i])
		if err != nil {
			return nil, nil, fmt.Errorf("translate: final encode instr %d (%s): %w", i, in, err)
		}
		if n != words[i] {
			return nil, nil, fmt.Errorf("translate: instr %d size changed in final pass (%d != %d)", i, n, words[i])
		}
		im.InstrAddr[i] = addr[i]
		im.InstrSize[i] = uint8(2 * n)
		off := addr[i] - lp.TextBase
		for w, hw := range ws[:n] {
			binary.LittleEndian.PutUint16(im.Text[off+uint32(2*w):], hw)
		}
	}
	return im, words, nil
}

// CheckImage runs the programmable decoder over every instruction slot
// of a translated image and fails on the first that differs from the
// lowered instruction the simulator times: in its fields, its size or
// the slot its branch reaches. Preparation runs it on every FITS image.
func CheckImage(res *Result) error {
	lp, im, spec := res.Lowered, res.Image, res.Spec
	read := func(a uint32) uint16 {
		if off := uint64(a) - uint64(im.TextBase); off+2 <= uint64(len(im.Text)) {
			return binary.LittleEndian.Uint16(im.Text[off:])
		}
		return 0
	}
	for i, a := range im.InstrAddr {
		d, err := spec.DecodeAt(read, a)
		if err != nil {
			return fmt.Errorf("translate: %s slot %d: %w", lp.Name, i, err)
		}
		if 2*d.Words != int(im.InstrSize[i]) {
			return fmt.Errorf("translate: %s slot %d decodes from %d halfwords, image says %d bytes", lp.Name, i, d.Words, im.InstrSize[i])
		}
		if d.IsBranch {
			ti, ok := im.Slot(d.BranchTarget)
			if !ok {
				return fmt.Errorf("translate: %s slot %d branches to %#x, which is not an instruction", lp.Name, i, d.BranchTarget)
			}
			d.In.TargetIdx = ti
		}
		want := lp.Instrs[i]
		want.Target = ""
		if d.In != want {
			return fmt.Errorf("translate: %s slot %d decodes to %+v, program has %+v", lp.Name, i, d.In, want)
		}
	}
	return nil
}
