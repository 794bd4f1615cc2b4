package cpu

import (
	"encoding/binary"
	"fmt"
	"math"

	"powerfits/internal/isa"
	"powerfits/internal/tracing"
)

// This file is the functional executor over the compiled micro-op
// table. runFusedBlock holds the one copy of the micro-op semantics: it
// executes a straight-line run of unconditional, non-control-flow
// micro-ops back to back, with no halt, budget or condition check and
// no PC or InstrCount update between them; that bookkeeping is settled
// once for the run. Three callers feed it: the superblock loop
// (runSuperblocks) with whole fused blocks, the segment memo's
// execSegment with the fused runs of a segment, and stepCompiled with
// single instructions. Control flow, halts, failed predicates and the
// budget's edge go through stepCompiled, so every fault and error
// string is the per-instruction one (pinned against the reference
// interpreter by FuzzCompiledVsStep, the whole-kernel tests and the
// golden tables).
//
// Block formation is a single backward pass producing, per instruction
// index, the length of the fusible straight-line run *starting* there.
// Because the length is valid for entry at any index — a branch into
// the middle of a run simply starts a shorter block — the classic
// "no branches in" superblock side condition needs no explicit
// side-entrance analysis.

// maxFuseLen caps recorded run lengths so they fit the uint16 fuse
// table. A longer run simply splits into several fused blocks.
const maxFuseLen = math.MaxUint16

// fusibleKind reports whether a micro-op kind may live inside a fused
// block. Control flow (B/BL/BX), halting and always-faulting kinds end
// a block; memory kinds stay fusible because runFusedBlock handles
// their faults mid-block with exact per-µop semantics.
func fusibleKind(k uint8) bool {
	switch k {
	case kBad, kB, kBL, kBX, kSwiHalt, kSwiBad:
		return false
	}
	return true
}

// buildFuse computes the superblock run-length table for a compiled
// program: fuse[i] is the number of consecutive micro-ops starting at i
// that can execute as one fused block (0 when instruction i itself is
// not fusible).
func buildFuse(uops []uop) []uint16 {
	fuse := make([]uint16, len(uops))
	for i := len(uops) - 1; i >= 0; i-- {
		u := &uops[i]
		if u.Cond != uint8(isa.AL) || !fusibleKind(u.Kind) {
			continue // fuse[i] stays 0
		}
		n := uint32(1)
		if i+1 < len(uops) {
			n += uint32(fuse[i+1])
		}
		if n > maxFuseLen {
			n = maxFuseLen
		}
		fuse[i] = uint16(n)
	}
	return fuse
}

// RunSuperblocks executes at most n further instructions (math.MaxUint64
// runs to halt), dispatching fused superblocks where the program
// structure allows and falling back to stepCompiled everywhere else. It
// returns with the machine stopped at an exact instruction boundary
// once InstrCount has advanced by n, or when the program halts or the
// machine's MaxInstrs budget runs out, whichever comes first. It is the
// functional run loop of profiling (profile.Collect), of RunFunctional
// and of the sampled timing simulator's fast-forwards. Semantics are
// bit-identical to the reference interpreter's Run (ref_test.go): same
// architectural state, same DynCount profile, same fault errors at the
// same instruction.
//
// touch, when non-nil, is the fetch-stream witness: it is called with
// the instruction-address range [lo, hi) of every executed batch (one
// fused block, or one instruction on the fallback path). The sampled
// simulator uses it to keep the I-cache warm across functional
// fast-forwards; without it, every measured window would start from an
// artificially cold cache and the extrapolated miss counts would be
// badly biased (the classic functional-warming requirement of sampled
// simulation).
//
// seen, when non-nil, is a warm-once set for a witness that needs each
// batch only once: one bit per instruction index (at least one per
// instruction of the program), and a batch whose first instruction's
// bit is set is not witnessed again. A bit is set once its whole batch
// was witnessed; a fused block the instruction bound cut short is
// witnessed, as one instruction, but leaves its bit clear. The bits
// persist across calls, so a caller that keeps seen between
// fast-forwards witnesses each block once per run. That is exact for a
// witness whose effect on a repeated range is none, as cache warming
// is when the cache holds the whole text (it never evicts, so a line
// touched once stays resident).
//
// sink, when non-nil, receives one KindSuperblock event per executed
// batch, carrying the machine's InstrCount at entry in Cycle
// (functional execution has no cycle clock), the batch's first encoded
// address in PC and its encoded length in Payload. A traced run
// witnesses every batch, so it takes no warm-once set. A nil sink adds
// nothing to the loop.
func (m *Machine) RunSuperblocks(c *Compiled, n uint64, touch func(lo, hi uint32), seen []uint64, sink tracing.EventSink) error {
	if err := c.check(m); err != nil {
		return err
	}
	if seen != nil && len(seen)*64 < len(c.uops) {
		return fmt.Errorf("cpu: warm-once set of %d bits for %d instructions", len(seen)*64, len(c.uops))
	}
	if n > math.MaxUint64-m.InstrCount {
		n = math.MaxUint64 - m.InstrCount
	}
	if sink != nil {
		if seen != nil {
			return fmt.Errorf("cpu: a traced run witnesses every batch; it takes no warm-once set")
		}
		witness := touch
		touch = func(lo, hi uint32) {
			if witness != nil {
				witness(lo, hi)
			}
			sink.Emit(tracing.Event{
				Cycle: m.InstrCount, PC: lo,
				Payload: hi - lo, Kind: tracing.KindSuperblock,
			})
		}
	}
	return m.runSuperblocks(c, m.InstrCount+n, touch, seen)
}

// runSuperblocks is the dispatch loop: fused blocks when a whole block
// fits the remaining instruction budget, inline handling for the hot
// unconditional block exits (B, BL, SWI-halt, and either direction of a
// conditional B), and stepCompiled for everything else (predicated ops,
// BX, bad ops, budget exhaustion and out-of-range PCs — so every error
// message stays byte-identical to the per-µop path). touch, when
// non-nil, witnesses each batch, except those seen marks as witnessed
// whole before (a warm-once set; nil witnesses every batch).
func (m *Machine) runSuperblocks(c *Compiled, target uint64, touch func(lo, hi uint32), seen []uint64) error {
	uops := c.uops
	fuse := c.fuse
	dyn := m.DynCount
	for !m.Halted && m.InstrCount < target {
		idx := m.PCIdx
		if idx < 0 || idx >= len(uops) {
			if _, err := m.stepCompiled(c); err != nil {
				return err
			}
			continue
		}
		rem := target - m.InstrCount
		if m.MaxInstrs > 0 {
			if m.InstrCount >= m.MaxInstrs {
				// Let stepCompiled produce the canonical budget error.
				if _, err := m.stepCompiled(c); err != nil {
					return err
				}
				continue
			}
			if br := m.MaxInstrs - m.InstrCount; br < rem {
				rem = br
			}
		}
		if touch != nil && (seen == nil || seen[idx>>6]&(1<<(idx&63)) == 0) {
			// Witness the fetch range of whatever executes next: the
			// whole fused block when one is about to run, else the
			// single fallback instruction. A whole batch is marked
			// seen; a block cut short by the budget is not.
			last, whole := idx, fuse[idx] == 0
			if n := int(fuse[idx]); n > 0 && uint64(n) <= rem {
				last, whole = idx+n-1, true
			}
			touch(c.addrs[idx], c.ends[last])
			if seen != nil && whole {
				seen[idx>>6] |= 1 << (idx & 63)
			}
		}
		if n := int(fuse[idx]); n > 0 && uint64(n) <= rem {
			if err := m.runFusedBlock(c, idx, n, dyn); err != nil {
				return err
			}
			continue
		}
		// rem >= 1 here, so one inline instruction is always within
		// budget. The hot exits avoid a stepCompiled call per block.
		u := &uops[idx]
		switch u.Kind {
		case kB:
			m.InstrCount++
			if dyn != nil {
				dyn[idx]++
			}
			if u.Cond == uint8(isa.AL) || m.CondHolds(isa.Cond(u.Cond)) {
				m.PCIdx = int(u.Aux)
			} else {
				m.PCIdx = idx + 1
			}
			continue
		case kBL:
			if u.Cond == uint8(isa.AL) {
				m.InstrCount++
				if dyn != nil {
					dyn[idx]++
				}
				m.Regs[isa.LR] = u.Imm
				m.PCIdx = int(u.Aux)
				continue
			}
		case kSwiHalt:
			if u.Cond == uint8(isa.AL) {
				m.InstrCount++
				if dyn != nil {
					dyn[idx]++
				}
				m.Halted = true
				m.PCIdx = idx
				continue
			}
		}
		if _, err := m.stepCompiled(c); err != nil {
			return err
		}
	}
	return nil
}

// fusedFault settles the partial block state exactly as the per-µop
// path would have left it — the j completed micro-ops plus the faulting
// one are counted (the optimistic whole-block DynCount update is rolled
// back for the micro-ops the fault prevented), the PC rests on the
// faulting instruction — and returns the identical ExecError.
func (m *Machine) fusedFault(c *Compiled, idx, j, n int, dyn []uint64, detail string) error {
	if dyn != nil {
		for k := j + 1; k < n; k++ {
			dyn[idx+k]--
		}
	}
	m.InstrCount += uint64(j) + 1
	m.PCIdx = idx + j
	return c.fault(idx+j, detail)
}

// runFusedBlock executes the n micro-ops starting at idx. The caller
// has verified that they fit the instruction budget and that each is a
// fusible kind whose condition holds (stepCompiled passes a predicated
// one singly), so the loop body is the bare execute dispatch: the
// DynCount profile is settled for the whole run up front (rolled back
// on fault), InstrCount and the PC advance once at the end, and the
// memory kinds run checkAddr's range/alignment tests inline so the
// non-faulting path makes no call per access (checkAddr itself runs
// only to format a fault it already knows occurred).
func (m *Machine) runFusedBlock(c *Compiled, idx, n int, dyn []uint64) error {
	uops := c.uops[idx : idx+n : idx+n]
	if dyn != nil {
		for j := range uops {
			dyn[idx+j]++
		}
	}
	for j := range uops {
		u := &uops[j]
		switch u.Kind {
		case kAddI:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] + u.Imm
		case kAddR:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] + m.Regs[u.Rm&15]
		case kAddX:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] + m.op2shifted(u)
		case kAdcI, kAdcR, kAdcX:
			carry := uint32(0)
			if m.C {
				carry = 1
			}
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] + m.op2plain(u) + carry
		case kSubI:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] - u.Imm
		case kSubR:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] - m.Regs[u.Rm&15]
		case kSubX:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] - m.op2shifted(u)
		case kSbcI, kSbcR, kSbcX:
			carry := uint32(0)
			if m.C {
				carry = 1
			}
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] + ^m.op2plain(u) + carry
		case kRsbI, kRsbR, kRsbX:
			m.Regs[u.Rd&15] = m.op2plain(u) - m.Regs[u.Rn&15]

		case kAddSI:
			m.Regs[u.Rd&15] = m.addFlags(m.Regs[u.Rn&15], u.Imm, 0)
		case kAddSR:
			m.Regs[u.Rd&15] = m.addFlags(m.Regs[u.Rn&15], m.Regs[u.Rm&15], 0)
		case kAddSX:
			m.Regs[u.Rd&15] = m.addFlags(m.Regs[u.Rn&15], m.op2shifted(u), 0)
		case kAdcSI, kAdcSR, kAdcSX:
			carry := uint32(0)
			if m.C {
				carry = 1
			}
			m.Regs[u.Rd&15] = m.addFlags(m.Regs[u.Rn&15], m.op2plain(u), carry)
		case kSubSI:
			m.Regs[u.Rd&15] = m.subFlags(m.Regs[u.Rn&15], u.Imm, 1)
		case kSubSR:
			m.Regs[u.Rd&15] = m.subFlags(m.Regs[u.Rn&15], m.Regs[u.Rm&15], 1)
		case kSubSX:
			m.Regs[u.Rd&15] = m.subFlags(m.Regs[u.Rn&15], m.op2shifted(u), 1)
		case kSbcSI, kSbcSR, kSbcSX:
			carry := uint32(0)
			if m.C {
				carry = 1
			}
			m.Regs[u.Rd&15] = m.subFlags(m.Regs[u.Rn&15], m.op2plain(u), carry)
		case kRsbSI, kRsbSR, kRsbSX:
			m.Regs[u.Rd&15] = m.subFlags(m.op2plain(u), m.Regs[u.Rn&15], 1)
		case kCmpI:
			m.subFlags(m.Regs[u.Rn&15], u.Imm, 1)
		case kCmpR:
			m.subFlags(m.Regs[u.Rn&15], m.Regs[u.Rm&15], 1)
		case kCmpX:
			m.subFlags(m.Regs[u.Rn&15], m.op2shifted(u), 1)
		case kCmnI, kCmnR, kCmnX:
			m.addFlags(m.Regs[u.Rn&15], m.op2plain(u), 0)

		case kAndI:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] & u.Imm
		case kAndR:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] & m.Regs[u.Rm&15]
		case kAndX:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] & m.op2shifted(u)
		case kOrrI:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] | u.Imm
		case kOrrR:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] | m.Regs[u.Rm&15]
		case kOrrX:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] | m.op2shifted(u)
		case kEorI:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] ^ u.Imm
		case kEorR:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] ^ m.Regs[u.Rm&15]
		case kEorX:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] ^ m.op2shifted(u)
		case kBicI, kBicR, kBicX:
			m.Regs[u.Rd&15] = m.Regs[u.Rn&15] &^ m.op2plain(u)
		case kMovI:
			m.Regs[u.Rd&15] = u.Imm
		case kMovR:
			m.Regs[u.Rd&15] = m.Regs[u.Rm&15]
		case kMovX:
			m.Regs[u.Rd&15] = m.op2shifted(u)
		case kMvnI, kMvnR, kMvnX:
			m.Regs[u.Rd&15] = ^m.op2plain(u)

		case kAndSI:
			r := m.Regs[u.Rn&15] & u.Imm
			m.setNZ(r)
			m.Regs[u.Rd&15] = r
		case kAndSR:
			r := m.Regs[u.Rn&15] & m.Regs[u.Rm&15]
			m.setNZ(r)
			m.Regs[u.Rd&15] = r
		case kAndSX:
			op2, shC := m.op2shiftedCarry(u)
			r := m.Regs[u.Rn&15] & op2
			m.setNZ(r)
			m.C = shC
			m.Regs[u.Rd&15] = r
		case kOrrSI, kOrrSR:
			r := m.Regs[u.Rn&15] | m.op2plain(u)
			m.setNZ(r)
			m.Regs[u.Rd&15] = r
		case kOrrSX:
			op2, shC := m.op2shiftedCarry(u)
			r := m.Regs[u.Rn&15] | op2
			m.setNZ(r)
			m.C = shC
			m.Regs[u.Rd&15] = r
		case kEorSI, kEorSR:
			r := m.Regs[u.Rn&15] ^ m.op2plain(u)
			m.setNZ(r)
			m.Regs[u.Rd&15] = r
		case kEorSX:
			op2, shC := m.op2shiftedCarry(u)
			r := m.Regs[u.Rn&15] ^ op2
			m.setNZ(r)
			m.C = shC
			m.Regs[u.Rd&15] = r
		case kBicSI, kBicSR:
			r := m.Regs[u.Rn&15] &^ m.op2plain(u)
			m.setNZ(r)
			m.Regs[u.Rd&15] = r
		case kBicSX:
			op2, shC := m.op2shiftedCarry(u)
			r := m.Regs[u.Rn&15] &^ op2
			m.setNZ(r)
			m.C = shC
			m.Regs[u.Rd&15] = r
		case kMovSI, kMovSR:
			r := m.op2plain(u)
			m.setNZ(r)
			m.Regs[u.Rd&15] = r
		case kMovSX:
			op2, shC := m.op2shiftedCarry(u)
			m.setNZ(op2)
			m.C = shC
			m.Regs[u.Rd&15] = op2
		case kMvnSI, kMvnSR:
			r := ^m.op2plain(u)
			m.setNZ(r)
			m.Regs[u.Rd&15] = r
		case kMvnSX:
			op2, shC := m.op2shiftedCarry(u)
			r := ^op2
			m.setNZ(r)
			m.C = shC
			m.Regs[u.Rd&15] = r
		case kTstI:
			m.setNZ(m.Regs[u.Rn&15] & u.Imm)
		case kTstR:
			m.setNZ(m.Regs[u.Rn&15] & m.Regs[u.Rm&15])
		case kTstX:
			op2, shC := m.op2shiftedCarry(u)
			m.setNZ(m.Regs[u.Rn&15] & op2)
			m.C = shC
		case kTeqI, kTeqR:
			m.setNZ(m.Regs[u.Rn&15] ^ m.op2plain(u))
		case kTeqX:
			op2, shC := m.op2shiftedCarry(u)
			m.setNZ(m.Regs[u.Rn&15] ^ op2)
			m.C = shC

		case kMul:
			m.Regs[u.Rd&15] = m.Regs[u.Rm&15] * m.Regs[u.Rs&15]
		case kMulS:
			r := m.Regs[u.Rm&15] * m.Regs[u.Rs&15]
			m.setNZ(r)
			m.Regs[u.Rd&15] = r
		case kMla:
			m.Regs[u.Rd&15] = m.Regs[u.Rm&15]*m.Regs[u.Rs&15] + m.Regs[u.Rn&15]
		case kMlaS:
			r := m.Regs[u.Rm&15]*m.Regs[u.Rs&15] + m.Regs[u.Rn&15]
			m.setNZ(r)
			m.Regs[u.Rd&15] = r

		case kQadd:
			m.Regs[u.Rd&15] = satAdd(m.Regs[u.Rn&15], m.Regs[u.Rm&15])
		case kQsub:
			m.Regs[u.Rd&15] = satAdd(m.Regs[u.Rn&15], uint32(-int32(m.Regs[u.Rm&15])))
		case kClz:
			m.Regs[u.Rd&15] = clz32(m.Regs[u.Rm&15])
		case kRev:
			v := m.Regs[u.Rm&15]
			m.Regs[u.Rd&15] = v<<24 | v>>24 | v<<8&0xff0000 | v>>8&0xff00
		case kMin:
			a, b := int32(m.Regs[u.Rn&15]), int32(m.Regs[u.Rm&15])
			if b < a {
				a = b
			}
			m.Regs[u.Rd&15] = uint32(a)
		case kMax:
			a, b := int32(m.Regs[u.Rn&15]), int32(m.Regs[u.Rm&15])
			if b > a {
				a = b
			}
			m.Regs[u.Rd&15] = uint32(a)

		case kLdr:
			ea, wb := m.effAddrC(u)
			if uint64(ea)+4 > uint64(len(m.mem)) || ea&3 != 0 {
				return m.fusedFault(c, idx, j, n, dyn, m.checkAddr(ea, 4))
			}
			m.Regs[u.Rd&15] = binary.LittleEndian.Uint32(m.mem[ea:])
			if wb {
				m.Regs[u.Rn&15] += u.Imm
			}
		case kLdrb:
			ea, wb := m.effAddrC(u)
			if uint64(ea) >= uint64(len(m.mem)) {
				return m.fusedFault(c, idx, j, n, dyn, m.checkAddr(ea, 1))
			}
			m.Regs[u.Rd&15] = uint32(m.mem[ea])
			if wb {
				m.Regs[u.Rn&15] += u.Imm
			}
		case kLdrh:
			ea, wb := m.effAddrC(u)
			if uint64(ea)+2 > uint64(len(m.mem)) || ea&1 != 0 {
				return m.fusedFault(c, idx, j, n, dyn, m.checkAddr(ea, 2))
			}
			m.Regs[u.Rd&15] = uint32(binary.LittleEndian.Uint16(m.mem[ea:]))
			if wb {
				m.Regs[u.Rn&15] += u.Imm
			}
		case kLdrsb:
			ea, wb := m.effAddrC(u)
			if uint64(ea) >= uint64(len(m.mem)) {
				return m.fusedFault(c, idx, j, n, dyn, m.checkAddr(ea, 1))
			}
			m.Regs[u.Rd&15] = uint32(int32(int8(m.mem[ea])))
			if wb {
				m.Regs[u.Rn&15] += u.Imm
			}
		case kLdrsh:
			ea, wb := m.effAddrC(u)
			if uint64(ea)+2 > uint64(len(m.mem)) || ea&1 != 0 {
				return m.fusedFault(c, idx, j, n, dyn, m.checkAddr(ea, 2))
			}
			m.Regs[u.Rd&15] = uint32(int32(int16(binary.LittleEndian.Uint16(m.mem[ea:]))))
			if wb {
				m.Regs[u.Rn&15] += u.Imm
			}
		case kStr:
			ea, wb := m.effAddrC(u)
			if uint64(ea)+4 > uint64(len(m.mem)) || ea&3 != 0 {
				return m.fusedFault(c, idx, j, n, dyn, m.checkAddr(ea, 4))
			}
			binary.LittleEndian.PutUint32(m.mem[ea:], m.Regs[u.Rd&15])
			m.touch(ea)
			if wb {
				m.Regs[u.Rn&15] += u.Imm
			}
		case kStrb:
			ea, wb := m.effAddrC(u)
			if uint64(ea) >= uint64(len(m.mem)) {
				return m.fusedFault(c, idx, j, n, dyn, m.checkAddr(ea, 1))
			}
			m.mem[ea] = byte(m.Regs[u.Rd&15])
			m.touch(ea)
			if wb {
				m.Regs[u.Rn&15] += u.Imm
			}
		case kStrh:
			ea, wb := m.effAddrC(u)
			if uint64(ea)+2 > uint64(len(m.mem)) || ea&1 != 0 {
				return m.fusedFault(c, idx, j, n, dyn, m.checkAddr(ea, 2))
			}
			binary.LittleEndian.PutUint16(m.mem[ea:], uint16(m.Regs[u.Rd&15]))
			m.touch(ea)
			if wb {
				m.Regs[u.Rn&15] += u.Imm
			}

		case kLdc:
			m.Regs[u.Rd&15] = u.Imm

		case kPush:
			sp := m.Regs[isa.SP] - u.Imm
			if d := m.checkAddr(sp, int(u.Imm)); d != "" {
				return m.fusedFault(c, idx, j, n, dyn, d)
			}
			a := sp
			list := uint16(u.Aux)
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if list&(1<<r) != 0 {
					binary.LittleEndian.PutUint32(m.mem[a:], m.Regs[r])
					a += 4
				}
			}
			m.touchPush(sp, u.Imm)
			m.Regs[isa.SP] = sp
		case kPop:
			sp := m.Regs[isa.SP]
			if d := m.checkAddr(sp, int(u.Imm)); d != "" {
				return m.fusedFault(c, idx, j, n, dyn, d)
			}
			a := sp
			list := uint16(u.Aux)
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if list&(1<<r) != 0 {
					m.Regs[r] = binary.LittleEndian.Uint32(m.mem[a:])
					a += 4
				}
			}
			m.Regs[isa.SP] = sp + u.Imm

		case kSwiEmit:
			m.Output = append(m.Output, m.Regs[isa.R0])

		case kNop:
			// nothing
		default:
			// Unreachable: callers pass fusible kinds only.
			return m.fusedFault(c, idx, j, n, dyn, "unimplemented op")
		}
	}
	m.InstrCount += uint64(n)
	m.PCIdx = idx + n
	return nil
}
