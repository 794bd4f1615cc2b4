package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"powerfits/internal/archive"
	"powerfits/internal/isa/fits"
	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// cmdExplain renders the synthesizer's decision log: why each
// signature earned (or lost) an opcode point, which closure round
// forced the SIS additions, and how the immediate-dictionary budget
// was spent. With -in it replays a previously archived trace record;
// otherwise it re-synthesizes the kernel with tracing attached.
func cmdExplain(kernelName string, scale, op int, savePath, inPath, dir string) {
	if inPath != "" {
		rec, err := archive.NewStore(dir).Resolve(inPath)
		if err != nil {
			fatal(err)
		}
		if len(rec.Traces) == 0 {
			fatal(fmt.Errorf("record %s holds no synthesis traces (create one with `powerfits explain -kernel K -save path.json`)", rec.RunID))
		}
		for i, tr := range rec.Traces {
			if i > 0 {
				fmt.Println()
			}
			renderTrace(os.Stdout, tr, "")
		}
		return
	}

	k, err := kernels.Get(kernelName)
	if err != nil {
		fatal(err)
	}
	opts := synth.DefaultOptions()
	opts.Trace = synth.NewTrace()
	s, err := sim.PrepareWith(k, scale, sim.PrepareOptions{Synth: opts})
	if err != nil {
		fatal(err)
	}

	// -op N narrows the candidate listing to the signature occupying
	// opcode point N of the final spec (the numbering `powerfits isa`
	// prints).
	filterKey := ""
	if op >= 0 {
		pts := s.Synth.Spec.Points
		if op >= len(pts) {
			fatal(fmt.Errorf("opcode point %d out of range (spec has %d points)", op, len(pts)))
		}
		if pts[op].Kind != fits.PointSig {
			fatal(fmt.Errorf("opcode point %d is the EXT prefix, not a signature", op))
		}
		filterKey = pts[op].Sig.Key()
	}
	renderTrace(os.Stdout, opts.Trace, filterKey)

	if savePath != "" {
		man := metrics.NewManifest("powerfits")
		man.Kernel = s.Kernel.Name
		man.ISAPoint = fmt.Sprintf("k=%d, %d/%d opcode points, %d dictionary entries",
			s.Synth.K, s.Synth.Spec.UsedPoints(), 1<<s.Synth.K, s.Synth.DictEntries)
		rec := archive.FromTrace(man, opts.Trace, s.Synth.Spec.MarshalConfig(), s.Scale)
		man.Finish()
		if err := rec.WriteFile(savePath); err != nil {
			fatal(err)
		}
		log.Info("wrote trace record", "run_id", rec.RunID, "path", savePath)
	}
}

// renderTrace writes one synthesis trace: the opcode-width search, then
// the chosen width's full decision log. filterKey, when set, narrows
// the candidate table to one signature (by injective key).
func renderTrace(w io.Writer, tr *synth.Trace, filterKey string) {
	fmt.Fprintf(w, "synthesis trace: %s (total dynamic weight %d)\n", tr.Program, tr.TotalWeight)
	fmt.Fprintln(w, "opcode-width search:")
	for _, kt := range tr.Ks {
		if kt.Err != "" {
			fmt.Fprintf(w, "  k=%d  infeasible: %s\n", kt.K, kt.Err)
			continue
		}
		mark := ""
		if kt.K == tr.ChosenK {
			mark = "   <- chosen (lowest weighted cost)"
		}
		fmt.Fprintf(w, "  k=%d  cost %d weighted halfwords, %d/%d points, %d dict entries%s\n",
			kt.K, kt.Cost, kt.Points, kt.Capacity, kt.DictEntries, mark)
	}
	kt := tr.Chosen()
	if kt == nil {
		fmt.Fprintln(w, "no feasible opcode width")
		return
	}

	fmt.Fprintf(w, "\ndecision log for k=%d:\n", kt.K)
	if len(kt.Window) > 0 {
		fmt.Fprintf(w, "register window (narrow-field ranks): %s\n", strings.Join(kt.Window, " "))
	}
	for _, cr := range kt.Closure {
		fmt.Fprintf(w, "sis closure round %d: +%s\n", cr.Round, strings.Join(cr.Added, " +"))
	}

	fmt.Fprintf(w, "%4s %-26s %14s %7s %7s %-11s %s\n",
		"rank", "signature", "weight", "share", "values", "outcome", "note")
	shown := 0
	for _, c := range kt.Candidates {
		if filterKey != "" && c.Key != filterKey {
			continue
		}
		shown++
		share := 0.0
		if tr.TotalWeight > 0 {
			share = 100 * float64(c.Weight) / float64(tr.TotalWeight)
		}
		note := ""
		if c.Outcome == synth.OutcomeSIS && c.ClosureRound > 0 {
			note = fmt.Sprintf("forced by closure round %d", c.ClosureRound)
		}
		rank := "-"
		if c.Rank > 0 {
			rank = strconv.Itoa(c.Rank)
		}
		fmt.Fprintf(w, "%4s %-26s %14d %6.2f%% %7d %-11s %s\n",
			rank, c.Sig, c.Weight, share, c.Values, c.Outcome, note)
	}
	if shown == 0 {
		fmt.Fprintln(w, "(no candidate matches the requested opcode point)")
	}

	if filterKey == "" && len(kt.Dict) > 0 {
		fmt.Fprintln(w, "immediate-dictionary decisions (benefit in weighted EXT halfwords avoided):")
		for _, dd := range kt.Dict {
			verdict := "chosen"
			if !dd.Chosen {
				verdict = "skipped (value-storage cap)"
			}
			fmt.Fprintf(w, "  %-26s %4d entries, benefit %12d: %s\n", dd.Sig, dd.Entries, dd.Benefit, verdict)
		}
	}
	fmt.Fprintf(w, "final: %d/%d points used, cost %d weighted halfwords, %d dictionary entries\n",
		kt.Points, kt.Capacity, kt.Cost, kt.DictEntries)
}
