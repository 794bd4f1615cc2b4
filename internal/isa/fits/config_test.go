package fits

import (
	"testing"

	"powerfits/internal/isa"
)

func TestConfigRoundTrip(t *testing.T) {
	for _, k := range []int{5, 6} {
		sp := testSpec(t, k)
		blob := sp.MarshalConfig()
		back, err := UnmarshalConfig(blob)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if back.Name != sp.Name || back.K != sp.K {
			t.Fatalf("header mismatch: %s/%d vs %s/%d", back.Name, back.K, sp.Name, sp.K)
		}
		if len(back.Points) != len(sp.Points) {
			t.Fatalf("point count %d vs %d", len(back.Points), len(sp.Points))
		}
		for i := range sp.Points {
			a, b := sp.Points[i], back.Points[i]
			if a.Kind != b.Kind || a.Sig != b.Sig || a.ImmDict != b.ImmDict || len(a.Values) != len(b.Values) {
				t.Fatalf("point %d mismatch: %+v vs %+v", i, a, b)
			}
			for j := range a.Values {
				if a.Values[j] != b.Values[j] {
					t.Fatalf("point %d value %d mismatch", i, j)
				}
			}
		}
		if len(back.Window) != len(sp.Window) {
			t.Fatalf("window length mismatch")
		}
		for i := range sp.Window {
			if back.Window[i] != sp.Window[i] {
				t.Fatalf("window rank %d mismatch", i)
			}
		}
	}
}

// TestConfigDrivesDecoder: a spec restored from its configuration image
// must decode a binary identically to the original — the paper's claim
// that the downloadable configuration fully defines the ISA.
func TestConfigDrivesDecoder(t *testing.T) {
	sp := testSpec(t, 6)
	back, err := UnmarshalConfig(sp.MarshalConfig())
	if err != nil {
		t.Fatal(err)
	}
	ins := []isa.Instr{
		{Op: isa.ADD, Cond: isa.AL, Rd: isa.R1, Rn: isa.R1, Imm: 256, HasImm: true, TargetIdx: -1},
		{Op: isa.LDR, Cond: isa.AL, Rd: isa.R1, Rn: isa.R9, Imm: 248, Mode: isa.AMOffImm, TargetIdx: -1},
		{Op: isa.LDC, Cond: isa.AL, Rd: isa.R3, Imm: -1, HasImm: true, TargetIdx: -1},
		{Op: isa.PUSH, Cond: isa.AL, RegList: 1<<isa.R4 | 1<<isa.LR, TargetIdx: -1},
	}
	for _, in := range ins {
		words, err := encodeWords(sp, &in, 0x8000, 0, 0)
		if err != nil {
			t.Fatalf("encode %s: %v", in, err)
		}
		read := func(a uint32) uint16 { return words[int(a-0x8000)/2] }
		d1, err1 := sp.DecodeAt(read, 0x8000)
		d2, err2 := back.DecodeAt(read, 0x8000)
		if err1 != nil || err2 != nil {
			t.Fatalf("decode: %v / %v", err1, err2)
		}
		if d1.In != d2.In || d1.Words != d2.Words {
			t.Fatalf("restored decoder diverges on %s: %+v vs %+v", in, d1.In, d2.In)
		}
	}
}

func TestConfigCorruption(t *testing.T) {
	sp := testSpec(t, 6)
	blob := sp.MarshalConfig()
	// Flipping any byte must be detected by the checksum (or the
	// validators behind it).
	for _, pos := range []int{0, 4, 5, 10, len(blob) / 2, len(blob) - 5, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0x5A
		if _, err := UnmarshalConfig(bad); err == nil {
			t.Errorf("corruption at byte %d undetected", pos)
		}
	}
	if _, err := UnmarshalConfig(blob[:8]); err == nil {
		t.Error("truncated config accepted")
	}
	if _, err := UnmarshalConfig(nil); err == nil {
		t.Error("empty config accepted")
	}
}
