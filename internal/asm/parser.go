package asm

import (
	"fmt"
	"strconv"
	"strings"

	"powerfits/internal/isa"
	"powerfits/internal/program"
)

// Parse assembles textual assembly (the syntax Format emits, which is
// also the disassembler's) into a program. Supported directives:
//
//	.data <symbol>          open a data symbol
//	.byte v, v, ...         append bytes (decimal, hex or negative)
//	.half v, ...            append 16-bit values
//	.word v, ...            append 32-bit values
//	.zero <n>               append n zero bytes
//	.func <name>            start a function
//	<label>:                define a code label
//	; @ //                  comments
//
// Instructions follow the disassembly syntax, e.g.:
//
//	addeq r0, r1, #4
//	mov r3, r2 lsr #8
//	ldrb r0, [r1], #1
//	str r0, [r1, r2 lsl #2]
//	ldc r5, =0x12345678
//	push {r4, r5, lr}
//	bne loop
func Parse(name, src string) (*program.Program, error) {
	ps := &parser{b: New(name)}
	for lineNo, raw := range strings.Split(src, "\n") {
		if err := ps.line(raw); err != nil {
			return nil, fmt.Errorf("asm %s:%d: %w (in %q)", name, lineNo+1, err, strings.TrimSpace(raw))
		}
	}
	ps.flushData()
	return ps.b.Build()
}

type parser struct {
	b       *Builder
	curSym  string
	curData []byte
}

func (ps *parser) flushData() {
	if ps.curSym != "" {
		ps.b.Bytes(ps.curSym, ps.curData)
		ps.curSym = ""
		ps.curData = nil
	}
}

func stripComment(s string) string {
	for _, marker := range []string{";", "//", "@"} {
		if i := strings.Index(s, marker); i >= 0 {
			s = s[:i]
		}
	}
	return strings.TrimSpace(s)
}

func (ps *parser) line(raw string) error {
	s := stripComment(raw)
	if s == "" {
		return nil
	}
	switch {
	case strings.HasPrefix(s, ".data "):
		ps.flushData()
		ps.curSym = strings.TrimSpace(strings.TrimPrefix(s, ".data "))
		if ps.curSym == "" {
			return fmt.Errorf("missing symbol name")
		}
		ps.curData = []byte{}
		return nil
	case strings.HasPrefix(s, ".byte"), strings.HasPrefix(s, ".half"),
		strings.HasPrefix(s, ".word"), strings.HasPrefix(s, ".zero"):
		return ps.dataDirective(s)
	case strings.HasPrefix(s, ".func "):
		ps.flushData()
		ps.b.Func(strings.TrimSpace(strings.TrimPrefix(s, ".func ")))
		return nil
	case strings.HasSuffix(s, ":"):
		lbl := strings.TrimSpace(strings.TrimSuffix(s, ":"))
		if lbl == "" {
			return fmt.Errorf("empty label")
		}
		ps.b.Label(lbl)
		return nil
	}
	return ps.instruction(s)
}

func (ps *parser) dataDirective(s string) error {
	if ps.curSym == "" {
		return fmt.Errorf("data directive outside .data")
	}
	kind := s[:5]
	rest := strings.TrimSpace(s[5:])
	if kind == ".zero" {
		n, err := parseInt(rest)
		if err != nil || n < 0 || n > int64(program.MaxDataBytes) {
			return fmt.Errorf("bad .zero count %q", rest)
		}
		if int64(len(ps.curData))+n > int64(program.MaxDataBytes) {
			return fmt.Errorf("data segment exceeds %d bytes", program.MaxDataBytes)
		}
		ps.curData = append(ps.curData, make([]byte, n)...)
		return nil
	}
	for _, part := range strings.Split(rest, ",") {
		v, err := parseInt(strings.TrimSpace(part))
		if err != nil {
			return err
		}
		switch kind {
		case ".byte":
			ps.curData = append(ps.curData, byte(v))
		case ".half":
			ps.curData = append(ps.curData, byte(v), byte(v>>8))
		case ".word":
			ps.curData = append(ps.curData, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
	}
	return nil
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Allow large unsigned hex like 0xFFFFFFFF.
		if u, uerr := strconv.ParseUint(s, 0, 32); uerr == nil {
			return int64(int32(u)), nil
		}
		return 0, fmt.Errorf("bad integer %q", s)
	}
	return v, nil
}

// baseOps lists instruction mnemonics, longest first so that e.g. "bls"
// parses as b+ls rather than colliding with bl, and "bl" wins over b+l.
var baseOps = []struct {
	name string
	op   isa.Op
}{
	{"ldrsb", isa.LDRSB}, {"ldrsh", isa.LDRSH},
	{"ldrb", isa.LDRB}, {"ldrh", isa.LDRH},
	{"strb", isa.STRB}, {"strh", isa.STRH},
	{"push", isa.PUSH}, {"qadd", isa.QADD}, {"qsub", isa.QSUB},
	{"ldr", isa.LDR}, {"str", isa.STR}, {"ldc", isa.LDC},
	{"pop", isa.POP}, {"nop", isa.NOP}, {"swi", isa.SWI},
	{"add", isa.ADD}, {"adc", isa.ADC}, {"sub", isa.SUB}, {"sbc", isa.SBC},
	{"rsb", isa.RSB}, {"and", isa.AND}, {"orr", isa.ORR}, {"eor", isa.EOR},
	{"bic", isa.BIC}, {"mov", isa.MOV}, {"mvn", isa.MVN},
	{"cmp", isa.CMP}, {"cmn", isa.CMN}, {"tst", isa.TST}, {"teq", isa.TEQ},
	{"mul", isa.MUL}, {"mla", isa.MLA}, {"clz", isa.CLZ}, {"rev", isa.REV},
	{"min", isa.MIN}, {"max", isa.MAX},
	{"bx", isa.BX}, {"bl", isa.BL}, {"b", isa.B},
}

var condByName = func() map[string]isa.Cond {
	m := map[string]isa.Cond{}
	for c := isa.EQ; c < isa.AL; c++ {
		m[c.String()] = c
	}
	return m
}()

var regByName = func() map[string]isa.Reg {
	m := map[string]isa.Reg{}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		m[r.String()] = r
	}
	m["r13"] = isa.SP
	m["r14"] = isa.LR
	m["r15"] = isa.PC
	return m
}()

// splitMnemonic separates a mnemonic token into op, condition and
// S-flag.
func splitMnemonic(tok string) (isa.Op, isa.Cond, bool, error) {
	for _, cand := range baseOps {
		if !strings.HasPrefix(tok, cand.name) {
			continue
		}
		rest := tok[len(cand.name):]
		set := false
		canS := (cand.op.Class() == isa.ClassALU && !cand.op.IsCompare()) ||
			cand.op.Class() == isa.ClassMul
		if canS && strings.HasSuffix(rest, "s") {
			// "s" may be the flag suffix; prefer cond parse first
			// (so e.g. "movls" is mov+LS, not movl+s).
			if _, ok := condByName[rest]; !ok {
				set = true
				rest = rest[:len(rest)-1]
			}
		}
		cond := isa.AL
		if rest != "" {
			c, ok := condByName[rest]
			if !ok {
				continue // not this base op; try a shorter one
			}
			cond = c
		}
		return cand.op, cond, set, nil
	}
	return 0, 0, false, fmt.Errorf("unknown mnemonic %q", tok)
}

// operand tokens: registers, #imm, =imm, shifted registers, addresses.
func (ps *parser) instruction(s string) error {
	mn := s
	rest := ""
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		mn, rest = s[:i], strings.TrimSpace(s[i+1:])
	}
	// lea is a builder pseudo-instruction: load a data symbol's address
	// (resolved at Build).
	if strings.ToLower(mn) == "lea" {
		parts := splitOperands(rest)
		if len(parts) != 2 {
			return fmt.Errorf("lea wants `rd, symbol`")
		}
		r, ok := regByName[parts[0]]
		if !ok {
			return fmt.Errorf("bad register %q", parts[0])
		}
		ps.flushData()
		ps.b.Lea(r, strings.TrimPrefix(parts[1], "="))
		return nil
	}
	op, cond, set, err := splitMnemonic(strings.ToLower(mn))
	if err != nil {
		return err
	}

	in := isa.Instr{Op: op, Cond: cond, SetFlags: set}
	switch op.Class() {
	case isa.ClassNop:
		// no operands
	case isa.ClassTrap:
		v, perr := parseImmToken(rest)
		if perr != nil {
			return perr
		}
		in.Imm, in.HasImm = v, true
	case isa.ClassBranch:
		if op == isa.BX {
			r, ok := regByName[strings.ToLower(rest)]
			if !ok {
				return fmt.Errorf("bad bx register %q", rest)
			}
			in.Rm = r
		} else {
			if rest == "" {
				return fmt.Errorf("branch needs a target label")
			}
			in.Target = rest
			if op == isa.B && cond != isa.AL {
				in.Op = isa.BC
			}
		}
	case isa.ClassStack:
		list, perr := parseRegList(rest)
		if perr != nil {
			return perr
		}
		in.RegList = list
	case isa.ClassLit:
		parts := splitOperands(rest)
		if len(parts) != 2 || !strings.HasPrefix(parts[1], "=") {
			return fmt.Errorf("ldc wants `rd, =value`")
		}
		r, ok := regByName[parts[0]]
		if !ok {
			return fmt.Errorf("bad register %q", parts[0])
		}
		v, perr := parseInt(parts[1][1:])
		if perr != nil {
			return perr
		}
		in.Rd, in.Imm, in.HasImm = r, int32(v), true
	case isa.ClassMem:
		if err := parseMemOperands(&in, rest); err != nil {
			return err
		}
	case isa.ClassMul:
		parts := splitOperands(rest)
		want := 3
		if op == isa.MLA {
			want = 4
		}
		if len(parts) != want {
			return fmt.Errorf("%s wants %d operands", op, want)
		}
		regs := make([]isa.Reg, want)
		for i, p := range parts {
			r, ok := regByName[p]
			if !ok {
				return fmt.Errorf("bad register %q", p)
			}
			regs[i] = r
		}
		in.Rd, in.Rm, in.Rs = regs[0], regs[1], regs[2]
		if op == isa.MLA {
			in.Rn = regs[3]
		}
	default: // ALU
		if err := parseALUOperands(&in, rest); err != nil {
			return err
		}
	}
	ps.flushData()
	ps.b.Emit(in)
	return nil
}

// splitOperands splits on commas that are not inside brackets/braces.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i, c := range s {
		switch c {
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		out = append(out, t)
	}
	return out
}

func parseImmToken(s string) (int32, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "#") {
		return 0, fmt.Errorf("immediate %q must start with #", s)
	}
	v, err := parseInt(s[1:])
	if err != nil {
		return 0, err
	}
	return int32(v), nil
}

// parseShiftedOperand parses "rM", "rM lsl #n", or "rM lsl rS" into the
// instruction's operand-2 fields.
func parseShiftedOperand(in *isa.Instr, s string) error {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return fmt.Errorf("missing operand")
	}
	r, ok := regByName[fields[0]]
	if !ok {
		return fmt.Errorf("bad register %q", fields[0])
	}
	in.Rm = r
	if len(fields) == 1 {
		return nil
	}
	if len(fields) != 3 {
		return fmt.Errorf("bad shifted operand %q", s)
	}
	var kind isa.Shift
	switch fields[1] {
	case "lsl":
		kind = isa.LSL
	case "lsr":
		kind = isa.LSR
	case "asr":
		kind = isa.ASR
	case "ror":
		kind = isa.ROR
	default:
		return fmt.Errorf("bad shift %q", fields[1])
	}
	in.Shift = kind
	if strings.HasPrefix(fields[2], "#") {
		v, err := parseInt(fields[2][1:])
		if err != nil || v < 0 || v > 31 {
			return fmt.Errorf("bad shift amount %q", fields[2])
		}
		in.ShiftAmt = uint8(v)
		return nil
	}
	rs, ok := regByName[fields[2]]
	if !ok {
		return fmt.Errorf("bad shift register %q", fields[2])
	}
	in.Rs = rs
	in.RegShift = true
	return nil
}

func parseALUOperands(in *isa.Instr, rest string) error {
	parts := splitOperands(rest)
	// Unary and compare forms take 2 operands; three-operand ALU takes 3.
	twoOperand := false
	switch in.Op {
	case isa.MOV, isa.MVN, isa.CLZ, isa.REV, isa.CMP, isa.CMN, isa.TST, isa.TEQ:
		twoOperand = true
	}
	if twoOperand && len(parts) != 2 {
		return fmt.Errorf("%s wants 2 operands", in.Op)
	}
	if !twoOperand && len(parts) != 3 {
		return fmt.Errorf("%s wants 3 operands", in.Op)
	}
	first, ok := regByName[parts[0]]
	if !ok {
		return fmt.Errorf("bad register %q", parts[0])
	}
	if in.Op.IsCompare() {
		in.Rn = first
	} else {
		in.Rd = first
	}
	opIdx := 1
	if !twoOperand {
		rn, ok := regByName[parts[1]]
		if !ok {
			return fmt.Errorf("bad register %q", parts[1])
		}
		in.Rn = rn
		opIdx = 2
	}
	last := parts[opIdx]
	if strings.HasPrefix(last, "#") {
		v, err := parseInt(last[1:])
		if err != nil {
			return err
		}
		in.Imm, in.HasImm = int32(v), true
		return nil
	}
	return parseShiftedOperand(in, last)
}

// parseMemOperands handles "rd, [rn, #off]", "rd, [rn, rm lsl #n]" and
// "rd, [rn], #inc".
func parseMemOperands(in *isa.Instr, rest string) error {
	parts := splitOperands(rest)
	if len(parts) < 2 || len(parts) > 3 {
		return fmt.Errorf("bad memory operands %q", rest)
	}
	rd, ok := regByName[parts[0]]
	if !ok {
		return fmt.Errorf("bad register %q", parts[0])
	}
	in.Rd = rd
	addr := parts[1]
	if !strings.HasPrefix(addr, "[") {
		return fmt.Errorf("expected address %q", addr)
	}
	if len(parts) == 3 {
		// Post-index: rd, [rn], #inc
		if !strings.HasSuffix(addr, "]") {
			return fmt.Errorf("bad post-index base %q", addr)
		}
		rn, ok := regByName[strings.TrimSpace(addr[1:len(addr)-1])]
		if !ok {
			return fmt.Errorf("bad base register %q", addr)
		}
		v, err := parseImmToken(parts[2])
		if err != nil {
			return err
		}
		in.Rn, in.Imm, in.Mode = rn, v, isa.AMPostImm
		return nil
	}
	if !strings.HasSuffix(addr, "]") {
		return fmt.Errorf("unclosed address %q", addr)
	}
	inner := splitOperands(addr[1 : len(addr)-1])
	if len(inner) == 0 {
		return fmt.Errorf("empty address %q", addr)
	}
	rn, ok := regByName[inner[0]]
	if !ok {
		return fmt.Errorf("bad base register %q", inner[0])
	}
	in.Rn = rn
	switch len(inner) {
	case 1:
		in.Mode = isa.AMOffImm
	case 2:
		if strings.HasPrefix(inner[1], "#") {
			v, err := parseInt(inner[1][1:])
			if err != nil {
				return err
			}
			in.Imm, in.Mode = int32(v), isa.AMOffImm
		} else {
			in.Mode = isa.AMOffReg
			tmp := isa.Instr{}
			if err := parseShiftedOperand(&tmp, inner[1]); err != nil {
				return err
			}
			if tmp.RegShift || (tmp.ShiftAmt != 0 && tmp.Shift != isa.LSL) {
				return fmt.Errorf("register offsets allow only `lsl #n`")
			}
			in.Rm, in.ShiftAmt = tmp.Rm, tmp.ShiftAmt
		}
	default:
		return fmt.Errorf("bad address %q", addr)
	}
	return nil
}

func parseRegList(s string) (uint16, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return 0, fmt.Errorf("register list %q must be braced", s)
	}
	var list uint16
	for _, part := range strings.Split(s[1:len(s)-1], ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		// Ranges like r4-r7.
		if i := strings.Index(part, "-"); i > 0 {
			lo, ok1 := regByName[strings.TrimSpace(part[:i])]
			hi, ok2 := regByName[strings.TrimSpace(part[i+1:])]
			if !ok1 || !ok2 || lo > hi {
				return 0, fmt.Errorf("bad register range %q", part)
			}
			for r := lo; r <= hi; r++ {
				list |= 1 << r
			}
			continue
		}
		r, ok := regByName[part]
		if !ok {
			return 0, fmt.Errorf("bad register %q", part)
		}
		list |= 1 << r
	}
	if list == 0 {
		return 0, fmt.Errorf("empty register list")
	}
	return list, nil
}
